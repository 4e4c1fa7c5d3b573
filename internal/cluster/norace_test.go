//go:build !race

package cluster

// See race_test.go.
const raceEnabled = false
