//go:build race

package experiments

// raceEnabled gates timing assertions, which the race runtime distorts.
const raceEnabled = true
