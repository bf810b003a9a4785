//go:build race

package experiments

// raceEnabled reports whether this binary was built with -race; the
// suite golden skips under it (the race detector slows the suite about
// fifteenfold).
const raceEnabled = true
