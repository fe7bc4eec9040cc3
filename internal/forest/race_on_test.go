//go:build race

package forest

// raceEnabled: see race_off_test.go.
const raceEnabled = true
