//go:build race

package soc

// raceEnabled reports whether this binary was built with -race; tests
// that assert allocation counts skip under it (instrumentation
// allocates).
const raceEnabled = true
