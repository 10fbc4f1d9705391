package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/stochastic"
)

// setupSamples is how many extra set-ups a run times besides the ones
// of its repetitions, so setup_s is a median even when one repetition
// fills the run.
const setupSamples = 101

// mcSeed seeds every Monte-Carlo ground truth. It is fixed, so the
// accuracy metrics repeat exactly.
const mcSeed = 20070917

// corrRounding is how far a correlation may sit outside [-1, 1] and
// still count as rounding: stats.Pearson divides two accumulated sums
// without clamping, so perfectly (anti-)correlated columns can land an
// ulp or two past ±1. A larger excess fails the run.
const corrRounding = 1e-12

// gate collects the correctness failures of a run, by case.
type gate struct {
	failed map[string]string // case name → first failure
	order  []string
	// roundedCorr counts correlations past ±1 by at most corrRounding,
	// reported on every run so the rounding stays visible.
	roundedCorr int
	maxExcess   float64
}

func (g *gate) fail(caseName, format string, args ...any) {
	if g.failed == nil {
		g.failed = map[string]string{}
	}
	if _, dup := g.failed[caseName]; dup {
		return
	}
	g.failed[caseName] = fmt.Sprintf(format, args...)
	g.order = append(g.order, caseName)
}

// untraced is what the timed repetitions of a workload measured.
type untraced struct {
	specs      []experiment.CaseSpec
	last       *experiment.Fig6Result
	digest     string
	setupS     []float64
	wallS      []float64 // AggregateCases wall time per repetition
	cpuS       []float64 // process CPU time per repetition
	evalsPerS  []float64
	peakRSSMB  float64
	cpuUtil    float64
	retries    int
	degraded   int
	allocMB    float64
	mallocs    uint64
	gcCycles   uint32
	gcCPUFrac  float64
	lastCache  *runner.Cache // the last repetition's case cache, nil without one
	attempted  int
	gateResult gate
}

// setUp is the work between workload start and entering
// AggregateCases: grid expansion with size validation, case-cache open
// and pool start.
type setUp struct {
	specs  []experiment.CaseSpec
	cache  *runner.Cache
	pool   *runner.Pool
	report *experiment.RunReport
}

func newSetUp(w workload, seed int64, workers int, cacheDir string) (*setUp, error) {
	specs, err := w.sweep.Cases(seed)
	if err != nil {
		return nil, err
	}
	s := &setUp{specs: specs, report: experiment.NewRunReport()}
	if w.caseCache {
		if s.cache, err = runner.OpenCache(cacheDir); err != nil {
			return nil, err
		}
		s.report.AttachCache(s.cache)
	}
	s.pool = runner.NewPool(workers)
	return s, nil
}

// rusage returns the process CPU time in seconds and the resident
// high-water mark in MB.
func rusage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// gcCPU returns the cumulative GC and total CPU seconds the runtime
// accounts for.
func gcCPU() (gcS, totalS float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measureUntraced runs the workload's timed repetitions until at least
// seconds of AggregateCases time are measured (one repetition at
// least) and checks every repetition's outputs.
func measureUntraced(ctx context.Context, w workload, o options) (*untraced, error) {
	cfg := w.config(o.workers)
	u := &untraced{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := gcCPU()
	for len(u.wallS) == 0 || sum(u.wallS) < o.seconds {
		rep := len(u.wallS)
		t0 := time.Now()
		s, err := newSetUp(w, o.seed, o.workers, filepath.Join(o.workdir, fmt.Sprintf("cache-%d", rep)))
		if err != nil {
			return nil, err
		}
		u.setupS = append(u.setupS, time.Since(t0).Seconds())
		if s.cache != nil {
			// A fresh directory: any hit would fake a ~400× gain.
			if n, err := s.cache.Len(); err != nil || n != 0 {
				s.pool.Close()
				return nil, fmt.Errorf("case cache %s not empty before repetition %d (%d entries, %v)", s.cache.Dir(), rep, n, err)
			}
		}
		c0, _ := rusage()
		t1 := time.Now()
		res, err := experiment.AggregateCases(ctx, s.specs, cfg, experiment.RunOptions{
			Pool: s.pool, Cache: s.cache, Report: s.report, KeepGoing: true,
		})
		wall := time.Since(t1).Seconds()
		c1, _ := rusage()
		s.pool.Close()
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		u.cpuS = append(u.cpuS, c1-c0)
		u.wallS = append(u.wallS, wall)
		u.specs = s.specs
		u.attempted += len(s.specs)

		rows := 0
		for _, cr := range res.Cases {
			rows += len(cr.Metrics) + len(cr.Heuristics)
		}
		u.evalsPerS = append(u.evalsPerS, float64(rows)/wall)

		snap := s.report.Snapshot()
		u.retries += snap.Retried()
		for _, c := range snap.Cases {
			if c.Degraded != "" {
				u.degraded++
			}
			u.gateResult.fail(c.Case, "not delivered clean: %d attempt(s), degraded=%q, err=%q", len(c.Attempts), c.Degraded, c.Err)
		}
		for _, q := range snap.Quarantines {
			u.gateResult.fail("cache", "quarantined entry %s", q.Key)
		}
		checkOutputs(&u.gateResult, s.specs, res)
		if s.cache != nil {
			// Every case wrote its own entry into the empty directory,
			// so every case was computed: zero hits.
			if n, err := s.cache.Len(); err != nil || n != len(s.specs) {
				u.gateResult.fail("cache", "repetition %d left %d cache entries for %d cases (%v)", rep, n, len(s.specs), err)
			}
			if u.lastCache != nil {
				os.RemoveAll(u.lastCache.Dir())
			}
			u.lastCache = s.cache
		}
		d, err := digest(res)
		if err != nil {
			return nil, err
		}
		if u.digest != "" && d != u.digest {
			u.gateResult.fail("digest", "repetition %d encodes to %s, repetition 0 to %s", rep, d, u.digest)
		}
		if u.digest == "" {
			u.digest = d
		}
		u.last = res
	}
	runtime.ReadMemStats(&ms1)
	gc1, tot1 := gcCPU()
	_, u.peakRSSMB = rusage()
	u.cpuUtil = sum(u.cpuS) / (sum(u.wallS) * float64(o.workers))
	u.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	u.mallocs = ms1.Mallocs - ms0.Mallocs
	u.gcCycles = ms1.NumGC - ms0.NumGC
	if tot1 > tot0 {
		u.gcCPUFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	// A set-up takes tens of microseconds, so samples taken back to back
	// read the host's speed of that instant. A finished collection
	// first keeps background GC work out of them, and a pause before
	// each starts every sample from the same idle state, as a real start
	// is, and spreads them over half a second.
	runtime.GC()
	for i := 0; i < setupSamples; i++ {
		time.Sleep(5 * time.Millisecond)
		t0 := time.Now()
		s, err := newSetUp(w, o.seed, o.workers, filepath.Join(o.workdir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		u.setupS = append(u.setupS, time.Since(t0).Seconds())
		s.pool.Close()
		if s.cache != nil {
			os.RemoveAll(s.cache.Dir())
		}
	}
	return u, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// checkOutputs applies the per-row checks: every case delivered, every
// metric finite, every correlation NaN (the documented zero-variance
// case) or within [-1, 1] up to rounding.
func checkOutputs(g *gate, specs []experiment.CaseSpec, res *experiment.Fig6Result) {
	delivered := map[string]bool{}
	for _, cr := range res.Cases {
		delivered[cr.Spec.Name] = true
		var rows []float64
		for _, m := range cr.Metrics {
			v := m.Vector()
			rows = append(rows, v[:]...)
		}
		for _, h := range cr.Heuristics {
			v := h.Metrics.Vector()
			rows = append(rows, v[:]...)
		}
		for _, x := range rows {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				g.fail(cr.Spec.Name, "non-finite metric %v", x)
				break
			}
		}
		for _, row := range cr.Corr {
			for _, x := range row {
				excess := math.Abs(x) - 1
				switch {
				case math.IsNaN(x) || excess <= 0:
				case excess <= corrRounding:
					g.roundedCorr++
					g.maxExcess = max(g.maxExcess, excess)
				default:
					g.fail(cr.Spec.Name, "correlation %v outside [-1, 1]", x)
				}
			}
		}
	}
	for _, s := range specs {
		if !delivered[s.Name] {
			g.fail(s.Name, "case missing from the result")
		}
	}
}

// scheduleEval is one schedule of a case, rebuilt from the case spec
// alone and evaluated like experiment.RunCaseOn evaluates it.
type scheduleEval struct {
	spec  experiment.CaseSpec
	scen  *platform.Scenario
	name  string // the heuristic, or "random/<generator seed>" for a pin
	draw  func(*platform.Scenario) (*schedule.Schedule, error)
	sched *schedule.Schedule
	rv    *stochastic.Numeric // EvalModel.Classic
	row   robustness.Metrics  // EvalModel.Metrics: the CaseResult row
}

// evalHeuristics rebuilds and evaluates every registered heuristic's
// schedule of every spec (heuristic schedules depend only on the
// scenario), in spec order and, within a spec, in the name order of
// CaseResult.Heuristics.
func evalHeuristics(ctx context.Context, specs []experiment.CaseSpec, cfg experiment.Config, workers int) ([]*scheduleEval, error) {
	hs := heuristics.All()
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	var evals []*scheduleEval
	for _, spec := range specs {
		scen, err := spec.BuildScenario()
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", spec.Name, err)
		}
		for _, h := range hs {
			fn := h.Fn
			evals = append(evals, &scheduleEval{spec: spec, scen: scen, name: h.Name,
				draw: func(scen *platform.Scenario) (*schedule.Schedule, error) {
					r, err := fn(scen)
					if err != nil {
						return nil, err
					}
					return r.Schedule, nil
				}})
		}
	}
	return evals, evalSchedules(ctx, evals, cfg, workers)
}

// evalPins rebuilds the pinned random schedules.
func evalPins(ctx context.Context, pins []pin, cfg experiment.Config, workers int) ([]*scheduleEval, error) {
	var evals []*scheduleEval
	for _, p := range pins {
		specs, err := p.sweep.Cases(p.seed)
		if err != nil {
			return nil, err
		}
		i := slices.IndexFunc(specs, func(s experiment.CaseSpec) bool { return s.Name == p.caseName })
		if i < 0 {
			return nil, fmt.Errorf("pinned case %s is not in its grid", p.caseName)
		}
		scen, err := specs[i].BuildScenario()
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", p.caseName, err)
		}
		rngSeed := p.rngSeed
		evals = append(evals, &scheduleEval{spec: specs[i], scen: scen, name: fmt.Sprintf("random/%d", rngSeed),
			draw: func(scen *platform.Scenario) (*schedule.Schedule, error) {
				return heuristics.RandomSchedules(scen, 1, rand.New(rand.NewSource(rngSeed)))[0], nil
			}})
	}
	return evals, evalSchedules(ctx, evals, cfg, workers)
}

// evalSchedules draws and evaluates every schedule on a pool.
func evalSchedules(ctx context.Context, evals []*scheduleEval, cfg experiment.Config, workers int) error {
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return err
	}
	params := robustness.Params{Delta: cfg.Delta, Gamma: cfg.Gamma, GridSize: acc.GridSize}
	pool := runner.NewPool(workers)
	defer pool.Close()
	return pool.Batch(ctx, len(evals), func(i int) error {
		e := evals[i]
		sched, err := e.draw(e.scen)
		if err != nil {
			return fmt.Errorf("case %s: %s: %w", e.spec.Name, e.name, err)
		}
		m, err := makespan.NewEvalCacheAccuracy(e.scen, acc).Model(sched)
		if err != nil {
			return fmt.Errorf("case %s: %s: %w", e.spec.Name, e.name, err)
		}
		e.sched, e.rv = sched, m.Classic()
		// EvalModel.Metrics, with the Classic result reused.
		e.row = robustness.FromDistributionSlacks(e.rv, m.Slacks(), params)
		return nil
	})
}

// checkHeuristicRows checks that EvalModel.Classic, run by the
// benchmark, reproduces the makespan of every heuristic row of the
// result bit for bit. It returns the number of rows checked.
func checkHeuristicRows(ctx context.Context, w workload, o options, res *experiment.Fig6Result, g *gate) (int, error) {
	specs := make([]experiment.CaseSpec, len(res.Cases))
	for i, cr := range res.Cases {
		specs[i] = cr.Spec
	}
	evals, err := evalHeuristics(ctx, specs, w.config(o.workers), o.workers)
	if err != nil {
		return 0, err
	}
	k := 0
	for _, cr := range res.Cases {
		for _, row := range cr.Heuristics {
			if k == len(evals) || evals[k].spec.Name != cr.Spec.Name || evals[k].name != row.Name {
				g.fail(cr.Spec.Name, "heuristic rows differ from the registered heuristics")
				return k, nil
			}
			if got, want := evals[k].rv.Mean(), row.Metrics.Makespan; math.Float64bits(got) != math.Float64bits(want) {
				g.fail(cr.Spec.Name, "%s: EvalModel.Classic mean %v, result row makespan %v", row.Name, got, want)
			}
			k++
		}
	}
	if k != len(evals) {
		g.fail("heuristics", "%d heuristic rows in the result, %d registered heuristic schedules", k, len(evals))
	}
	return k, nil
}

// accuracy is the Monte-Carlo comparison of the probe schedules.
type accuracy struct {
	Schedules     int         `json:"schedules"` // probe schedules, pins included
	Pins          []pinResult `json:"pins,omitempty"`
	MakespanRel   float64     `json:"makespan_relerr"` // mean |E(M) - MC mean| / MC mean
	StdRel        float64     `json:"std_relerr"`      // mean |σ_M - MC σ| / MC σ
	KS            float64     `json:"ks_vs_mc"`        // mean KS distance, classic CDF vs MC empirical CDF
	MCS           float64     `json:"mc_s"`            // Monte-Carlo wall time
	MCTaskSamples float64     `json:"mc_task_samples"` // tasks × realizations summed over MC runs
}

// probeOnce returns the probe metrics, reusing the ones an earlier run
// of the same binary stored in o.outdir: they depend on the built code,
// the probe grid and the probe seed, never on --seed, and the
// Monte-Carlo ground truth is the larger part of an untraced run. With
// fresh set (traced runs, so schedule.mc_* is measured) it always
// recomputes them. reused reports whether the stored value was used.
func probeOnce(ctx context.Context, w workload, o options, fresh bool) (a *accuracy, reused bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, false, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, false, err
	}
	fmt.Fprintf(h, "\x00%s\x00%s\x00%d", w.name, o.scale, o.probe)
	path := filepath.Join(o.outdir, "probe-"+hex.EncodeToString(h.Sum(nil))[:32]+".json")
	if !fresh {
		if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &a) == nil && a != nil {
			return a, true, nil
		}
	}
	if a, err = probeAccuracy(ctx, w, o); err != nil {
		return nil, false, err
	}
	// Written under a temporary name and renamed, so concurrent runs
	// never read a torn file.
	tmp, err := os.CreateTemp(o.outdir, "probe-*.tmp")
	if err != nil {
		return nil, false, err
	}
	if err := json.NewEncoder(tmp).Encode(a); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, false, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, false, err
	}
	return a, false, os.Rename(tmp.Name(), path)
}

// pinResult is how a pinned schedule evaluated, printed on every run so
// a point mass shows by itself and not only in the averages.
type pinResult struct {
	Case     string  `json:"case"`
	Name     string  `json:"name"`
	Makespan float64 `json:"makespan"`
	StdDev   float64 `json:"std"`
	MCMean   float64 `json:"mc_mean"`
	MCStd    float64 `json:"mc_std"`
}

// probeAccuracy compares the rows a CaseResult would report for the
// heuristic schedules of the workload's probe grid, and for its pinned
// schedules, with exact-sampler Monte-Carlo ground truth. It runs
// outside every timed region.
func probeAccuracy(ctx context.Context, w workload, o options) (*accuracy, error) {
	specs, err := w.probe.Cases(o.probe)
	if err != nil {
		return nil, err
	}
	cfg := w.config(o.workers)
	evals, err := evalHeuristics(ctx, specs, cfg, o.workers)
	if err != nil {
		return nil, err
	}
	pinned, err := evalPins(ctx, w.pins, cfg, o.workers)
	if err != nil {
		return nil, err
	}
	evals = append(evals, pinned...)
	a := &accuracy{Schedules: len(evals)}
	for i, e := range evals {
		t0 := time.Now()
		emp, err := makespan.MonteCarloWith(e.scen, e.sched, w.mcRealizations, mcSeed,
			makespan.MCOptions{Sampler: stochastic.SamplerExact, Workers: o.workers})
		a.MCS += time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("case %s: %s: monte carlo: %w", e.spec.Name, e.name, err)
		}
		a.MCTaskSamples += float64(e.scen.G.N()) * float64(w.mcRealizations)
		mcMean, mcStd := emp.Mean(), emp.StdDev()
		if i >= len(evals)-len(pinned) {
			a.Pins = append(a.Pins, pinResult{Case: e.spec.Name, Name: e.name, Makespan: e.row.Makespan, StdDev: e.row.StdDev, MCMean: mcMean, MCStd: mcStd})
		}
		a.MakespanRel += math.Abs(e.row.Makespan-mcMean) / mcMean
		a.StdRel += math.Abs(e.row.StdDev-mcStd) / mcStd
		a.KS += stats.KSAgainstEmpirical(e.rv, emp)
	}
	if n := float64(len(evals)); n > 0 {
		a.MakespanRel /= n
		a.StdRel /= n
		a.KS /= n
	}
	return a, nil
}
