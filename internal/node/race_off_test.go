//go:build !race

package node

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
