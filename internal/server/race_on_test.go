//go:build race

package server

// raceEnabled reports whether this binary was built with -race; tests
// that assert allocation counts skip under it (instrumentation
// allocates).
const raceEnabled = true
