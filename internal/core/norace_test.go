//go:build !race

package core

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
