//go:build !race

package wire

// raceEnabled reports whether the race detector instruments this
// build. Column then poisons every element it returns, so a read that
// comes before its write shows up in the tests CI runs with -race.
const raceEnabled = false
