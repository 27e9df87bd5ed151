package main

import (
	"transn/internal/dataset"
	"transn/internal/graph"
	"transn/internal/transn"
)

// phase names the pipeline a workload is chosen to stress.
type phase int

const (
	phaseTrain phase = iota
	phaseServe
)

// workload is one named input set. Every workload runs both pipelines
// end to end — graph → walk → skip-gram → cross-view → freeze, then
// pack → open → serve — so every end-to-end metric exists on every
// workload; ServeShare splits the measured time between them and
// Primary decides which setup setup_s reports.
type workload struct {
	Name    string
	Graph   func(seed int64) *graph.Graph
	Train   transn.Config
	Primary phase
	// ServeShare is how long the client serves after each training
	// run, as a multiple of that run's wall time.
	ServeShare float64
	// ReloadEvery > 0 posts /admin/reload after every ReloadEvery
	// measured requests.
	ReloadEvery int
}

// quickConfig is DefaultConfig with short walks: d=64, ρ=20, 4–10
// walks per node. Training is pinned to two workers and the
// deterministic sharded apply, so embeddings, macro_f1 and every work
// count repeat exactly for a seed.
func quickConfig() transn.Config {
	c := transn.DefaultConfig()
	c.WalkLength = 20
	c.MinWalksPerNode = 4
	c.MaxWalksPerNode = 10
	c.Workers = 2
	c.DeterministicApply = true
	return c
}

// workloads are the benchmark's workloads. Two more were designed with
// them and dropped because their serving numbers did not hold steady on
// the 2-vCPU reference VM (see README.md): train-xview (AMiner, H=6, the
// translator-heavy counterpart of train-sgns) and serve-read (the same
// stream as serve-reload without reloads).
func workloads() []workload {
	sgns := quickConfig()
	sgns.Iterations = 2
	sgns.CrossPathsPerPair = 50

	fixture := quickConfig()
	fixture.Iterations = 2

	return []workload{
		{
			Name: "train-sgns",
			Graph: func(seed int64) *graph.Graph {
				return dataset.BLOG(dataset.Full, seed)
			},
			Train:      sgns,
			Primary:    phaseTrain,
			ServeShare: 1,
		},
		{
			Name: "serve-reload",
			Graph: func(seed int64) *graph.Graph {
				return dataset.AppWeekly(dataset.Full, seed)
			},
			Train:       fixture,
			Primary:     phaseServe,
			ServeShare:  2,
			ReloadEvery: 2000,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
