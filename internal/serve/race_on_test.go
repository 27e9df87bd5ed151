//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a share of
// the items put back, so pooled paths cannot be pinned at their
// steady-state allocation count.
const raceEnabled = true
