//go:build !race

package bench

// raceEnabled reports whether the binary was built with the race
// detector. The byte-identity tests demand exact virtual times, which
// the race scheduler's stolen-charge attribution wobble cannot provide.
const raceEnabled = false
