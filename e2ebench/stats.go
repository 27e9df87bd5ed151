package main

import (
	"math"
	"sort"

	"transn/internal/obs"
)

// orderStat returns the q-quantile of sorted as an exact order
// statistic (nearest rank: the smallest sample with at least q of the
// samples at or below it). No interpolation, so a reported p99 is a
// latency some request actually had.
func orderStat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// repeat mode's spreads are the same numbers a comparison script
// computes from the printed results. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// stageEvent is one training stage boundary as the benchmark saw it: a
// TrainEvent plus the heap bytes allocated since the previous event.
type stageEvent struct {
	Stage      obs.Stage
	Seconds    float64
	Examples   int
	AllocBytes uint64
}

// stageTotals is one training stage's account over a run.
type stageTotals struct {
	SelfSeconds float64
	Examples    int
	AllocBytes  uint64
}

// stageAccount folds a training event stream into per-stage self time,
// work and allocation. Walk, skip-gram and cross-view pair stages are
// leaves; an iteration event closes every leaf since the previous
// iteration event and its self time is its duration minus theirs.
// Allocation is attributed to the stage whose event ends the interval:
// stages run one after another, so bytes allocated between two events
// belong to the stage that just finished.
func stageAccount(events []stageEvent) map[obs.Stage]stageTotals {
	out := map[obs.Stage]stageTotals{}
	var childSeconds float64
	for _, ev := range events {
		t := out[ev.Stage]
		t.Examples += ev.Examples
		t.AllocBytes += ev.AllocBytes
		if ev.Stage == obs.StageIteration {
			t.SelfSeconds += ev.Seconds - childSeconds
			childSeconds = 0
		} else {
			t.SelfSeconds += ev.Seconds
			childSeconds += ev.Seconds
		}
		out[ev.Stage] = t
	}
	return out
}

// share is part/whole, or 0 when whole is not positive.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

// idleShare is the fraction of the worker pool's capacity that sat
// idle: 1 − Σ busy / (workers × wall).
func idleShare(busySeconds []float64, workers int, wallSeconds float64) float64 {
	var busy float64
	for _, b := range busySeconds {
		busy += b
	}
	if workers <= 0 || wallSeconds <= 0 {
		return 0
	}
	return 1 - busy/(float64(workers)*wallSeconds)
}

// recallAtK is the mean over queries of |approx ∩ exact| / k, where
// exact holds each query's true k nearest neighbours.
func recallAtK(approx, exact [][]string, k int) float64 {
	if len(exact) == 0 || k <= 0 {
		return 0
	}
	var sum float64
	for q := range exact {
		truth := map[string]bool{}
		for _, n := range exact[q] {
			truth[n] = true
		}
		hit := 0
		if q < len(approx) {
			for _, n := range approx[q] {
				if truth[n] {
					hit++
				}
			}
		}
		sum += float64(hit) / float64(k)
	}
	return sum / float64(len(exact))
}
