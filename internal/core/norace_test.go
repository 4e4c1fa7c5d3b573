//go:build !race

package core

// See race_test.go.
const raceEnabled = false
