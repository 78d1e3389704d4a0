//go:build race

package store_test

// raceEnabled reports whether the race detector is compiled in; the
// long random-script properties run a tenth of their scripts under it.
const raceEnabled = true
