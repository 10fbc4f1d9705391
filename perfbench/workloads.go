package main

import (
	"fmt"
	"sort"

	"repro/internal/experiment"
)

// workload is one named set of sweep cells the benchmark runs through
// experiment.AggregateCases, the path behind `cmd/experiments -fig sweep`.
type workload struct {
	name string
	// sweep is the timed case grid; the benchmark seed is its base seed.
	sweep experiment.Sweep
	// schedules is Config.Schedules: random schedules per case below
	// 100 tasks, a fifth of it (at least 20) from 100 tasks up.
	schedules int
	// accuracy is the EvalAccuracy preset of every case.
	accuracy string
	// caseCache runs every timed repetition against a fresh
	// runner.Cache directory, so case-cache writes are timed and a hit
	// can never fake a speed-up.
	caseCache bool
	// probe is the grid whose heuristic schedules are checked against
	// Monte-Carlo ground truth. It expands at its own seed (--probe-seed),
	// not the workload seed, so the accuracy metrics of a commit read the
	// same on every run and any change to them is a change in the
	// numerics.
	probe experiment.Sweep
	// pins are random schedules the probe checks besides the heuristic
	// schedules of its grid.
	pins []pin
	// mcRealizations is the fixed Monte-Carlo sample count per probe
	// schedule.
	mcRealizations int
}

// pin is a random schedule of a fixed case: the first schedule
// heuristics.RandomSchedules draws, from a generator seeded rngSeed, for
// the case named caseName of sweep expanded at seed. It does not move
// with --probe-seed.
type pin struct {
	sweep    experiment.Sweep
	seed     int64
	caseName string
	rngSeed  int64
}

// mcRealizations is the Monte-Carlo sample count of every full-scale
// workload. It keeps the sampling error of the mean near 3e-5 relative
// on the n≈1000 probes, a tenth of the smallest error it measures there,
// and fits three Monte-Carlo-checked n≈1000 schedules per family in a
// run.
const mcRealizations = 10000

// paperFamilies are the nine default families of `-fig sweep`.
var paperFamilies = []string{
	experiment.RandomFamily, experiment.CholeskyFamily, experiment.GaussElimFamily,
	experiment.JoinFamily, experiment.InTreeFamily, experiment.OutTreeFamily,
	experiment.SeriesParallelFamily, experiment.FFTFamily, experiment.STGFamily,
}

// largeFamilies are the structured families with n≈1000 baselines in
// ROADMAP (cholesky 1.95 s and fft 1.43 s per `reference` evaluation).
var largeFamilies = []string{experiment.CholeskyFamily, experiment.FFTFamily}

// workloads returns the workload table at the given scale: "full" is
// the benchmark, "tiny" shrinks every grid so the smoke tests finish in
// seconds while running the same code paths.
func workloads(scale string) (map[string]workload, error) {
	var ws []workload
	switch scale {
	case "full":
		// large-ref and large-fast probe the same cells, so their
		// accuracy metrics compare the two presets on identical
		// schedules and ground truth.
		large := experiment.Sweep{NamePrefix: "large", Families: largeFamilies, Sizes: []int{1000}, ULs: []float64{1.1}}
		// At `fast` this schedule evaluates to a point mass (σ_M = 0,
		// entropy −Inf; `reference` gives σ_M ≈ 7.3): an Add operand
		// narrower than 1.5 capped work-grid steps is resampled onto
		// its two end points, where its density is zero, and the sum
		// loses all its mass (ROADMAP item 2). About one n≈1000 random
		// schedule in 600 does this, so the timed large-fast grid runs
		// at n≈100, and the pin keeps the failure in the large-*
		// accuracy metrics until it is fixed.
		collapse := pin{sweep: large, seed: 6, caseName: "large-01-cholesky-n1000-ul1.1-r0", rngSeed: 28}
		// Random graphs are ~85% of the paper-small CPU and their cost
		// varies by instance, so the grid runs four of them per cell
		// (Fig. 6 runs two) at 40 schedules each: about as many
		// random-graph evaluations, and so as much time, as one instance
		// at 150 schedules, with the instance averaged out.
		small := experiment.Sweep{NamePrefix: "paper-small", Families: paperFamilies, Sizes: []int{10, 30}, ULs: []float64{1.01, 1.1},
			RepsFor: map[string]int{experiment.RandomFamily: 4}}
		ws = []workload{
			{
				// >99% of CPU is the `reference` Add kernel on work grids
				// of up to 8k points (ROADMAP item 4's target).
				name: "large-ref", sweep: large, schedules: 100, accuracy: "reference",
				probe: large, pins: []pin{collapse}, mcRealizations: mcRealizations,
			},
			{
				// The same kernel capped at a 256-point work grid, so the
				// heuristics, compile, metrics and scenario build take a
				// visible share; the `fast` bias shows in the accuracy
				// metrics, which probe the n≈1000 schedules of large-ref.
				// The timed grid stays at n≈100: there the widest sum is
				// at most 107 times its narrowest operand (55 200 schedules
				// measured), under the 171 at which `fast` collapses one.
				name: "large-fast", schedules: 40, accuracy: "fast",
				sweep: experiment.Sweep{NamePrefix: "large-fast", Families: largeFamilies, Sizes: []int{100}, ULs: []float64{1.01, 1.1}, Reps: 6},
				probe: large, pins: []pin{collapse}, mcRealizations: mcRealizations,
			},
			{
				// The paper's own scale: many small Adds with narrow
				// operands, per-case costs and cold case-cache writes.
				name: "paper-small", sweep: small, schedules: 40, accuracy: "reference", caseCache: true,
				probe: small, mcRealizations: mcRealizations,
			},
		}
	case "tiny":
		large := experiment.Sweep{NamePrefix: "large", Families: largeFamilies, Sizes: []int{30}, ULs: []float64{1.1}}
		small := experiment.Sweep{NamePrefix: "paper-small", Families: paperFamilies, Sizes: []int{10}, ULs: []float64{1.1},
			RepsFor: map[string]int{experiment.RandomFamily: 2}}
		pins := []pin{{sweep: large, seed: 6, caseName: "large-01-cholesky-n30-ul1.1-r0", rngSeed: 28}}
		ws = []workload{
			{name: "large-ref", sweep: large, schedules: 6, accuracy: "reference", probe: large, pins: pins, mcRealizations: 500},
			{
				name: "large-fast", schedules: 6, accuracy: "fast",
				sweep: experiment.Sweep{NamePrefix: "large-fast", Families: largeFamilies, Sizes: []int{30}, ULs: []float64{1.01, 1.1}, Reps: 2},
				probe: large, pins: pins, mcRealizations: 500,
			},
			{name: "paper-small", sweep: small, schedules: 6, accuracy: "reference", caseCache: true, probe: small, mcRealizations: 500},
		}
	default:
		return nil, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
	}
	out := make(map[string]workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out, nil
}

// workloadNames lists the workload names in sorted order.
func workloadNames(ws map[string]workload) []string {
	names := make([]string, 0, len(ws))
	for name := range ws {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// config is the experiment configuration of a workload.
func (w workload) config(workers int) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Schedules = w.schedules
	cfg.EvalAccuracy = w.accuracy
	cfg.Workers = workers
	return cfg
}
