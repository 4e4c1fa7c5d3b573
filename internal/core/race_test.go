//go:build race

package core

// raceEnabled gates allocation pins on pooled scratch: sync.Pool drops a
// quarter of Puts under the race detector, so refills read as allocations.
const raceEnabled = true
