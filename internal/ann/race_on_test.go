//go:build race

package ann

// raceEnabled reports a -race build, where sync.Pool drops a share of
// the items put back, so Search's pooled scratch cannot be pinned at
// its steady-state allocation count.
const raceEnabled = true
