//go:build race

package core

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool deliberately drops returned buffers.
const raceEnabled = true
