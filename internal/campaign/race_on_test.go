//go:build race

package campaign

// raceEnabled reports whether this test binary was built with -race; the
// allocation guard skips itself there (the race runtime allocates on its
// own account).
const raceEnabled = true
