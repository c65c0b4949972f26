//go:build race

package adocrpc

// raceEnabled reports that this binary was built with the race detector,
// which changes allocation counts and drops pooled buffers.
const raceEnabled = true
