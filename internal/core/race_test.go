//go:build race

package core

// raceEnabled reports whether the race detector instrumented this build;
// instrumentation adds allocations, so exact alloc budgets don't hold.
const raceEnabled = true
