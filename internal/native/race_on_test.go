//go:build race

package native

// raceEnabled: see race_off_test.go.
const raceEnabled = true
