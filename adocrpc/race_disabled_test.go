//go:build !race

package adocrpc

const raceEnabled = false
