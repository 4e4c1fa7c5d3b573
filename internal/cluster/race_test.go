//go:build race

package cluster

// raceEnabled gates tests whose assertions the race runtime itself breaks
// (sync.Pool deliberately drops a quarter of Puts under the race detector,
// so allocation pins on pooled scratch read refills as regressions).
const raceEnabled = true
