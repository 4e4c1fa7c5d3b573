//go:build !race

package experiments

// See race_test.go.
const raceEnabled = false
