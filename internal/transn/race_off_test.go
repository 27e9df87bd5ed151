//go:build !race

package transn

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
