//go:build race

package wire

// raceEnabled: see race_off.go.
const raceEnabled = true
