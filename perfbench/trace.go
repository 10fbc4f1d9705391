package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/platform"
	"repro/internal/robustness"
	"repro/internal/runner"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// recorder keeps the spans of the traced run in memory.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) begin(name string, parent, caseID int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Case: caseID, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// traced is what the traced run measured.
type traced struct {
	spans          []span
	wallS          float64
	addOps, maxOps int64
	cacheBytes     int64
	cacheHits      int
	quarantines    int
	rows, matched  int // result rows, and those bit-identical to the untraced run
}

// tracedCase holds one case's inputs and outputs in the traced run.
type tracedCase struct {
	scen    *platform.Scenario
	scheds  []*schedule.Schedule // random, then heuristic in row order
	metrics []robustness.Metrics // same order as scheds
}

// runTraced drives the untraced run's cases through the layers' public
// functions, with a span around each call, fanning the per-schedule
// evaluations out over a pool of the same size the way
// experiment.RunCases does. It then re-reads every case-cache entry
// the last untraced repetition wrote.
func runTraced(ctx context.Context, w workload, o options, u *untraced, g *gate) (*traced, error) {
	cfg := w.config(o.workers)
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return nil, err
	}
	params := robustness.Params{Delta: cfg.Delta, Gamma: cfg.Gamma, GridSize: acc.GridSize}
	hs := heuristics.All()
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	var putCache *runner.Cache
	if w.caseCache {
		if putCache, err = runner.OpenCache(filepath.Join(o.workdir, "cache-traced")); err != nil {
			return nil, err
		}
	}

	// The delivered cases: a case that failed is already counted by the
	// gate and has no schedule count to replay.
	want := u.last.Cases
	specs := make([]experiment.CaseSpec, len(want))
	for i, cr := range want {
		specs[i] = cr.Spec
	}
	cases := make([]tracedCase, len(specs))
	pool := runner.NewPool(o.workers)
	defer pool.Close()
	rec := &recorder{t0: time.Now()}

	// One case in flight per worker, admitted in spec order, as in
	// experiment.RunCases.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	caseCh := make(chan int)
	go func() {
		defer close(caseCh)
		for i := range specs {
			select {
			case caseCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for k := 0; k < min(o.workers, len(specs)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range caseCh {
				cases[i], errs[i] = traceCase(ctx, rec, pool, i, specs[i], cfg, params, hs, len(want[i].Metrics), putCache)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t := &traced{wallS: time.Since(rec.t0).Seconds()}

	if u.lastCache != nil {
		u.lastCache.OnQuarantine(func(string, string) { t.quarantines++ })
		for i, spec := range specs {
			key, err := experiment.CaseCacheKey(spec, cfg)
			if err != nil {
				return nil, err
			}
			sp := rec.begin("runner.cache_get", -1, i)
			data, ok, err := u.lastCache.Get(key)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			if !ok {
				g.fail(spec.Name, "case-cache entry missing on re-read")
				continue
			}
			t.cacheHits++
			t.cacheBytes += int64(len(data))
		}
		if t.quarantines > 0 {
			g.fail("cache", "%d case-cache entries quarantined on re-read", t.quarantines)
		}
	}
	t.spans = rec.spans

	// Counted after the pass, so the compile for counting stays out of
	// every span.
	for i, c := range cases {
		csr := c.scen.G.SortedCSR()
		for _, s := range c.scheds {
			adds, maxes, err := classicOps(csr, s)
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", specs[i].Name, err)
			}
			t.addOps += adds
			t.maxOps += maxes
		}
		wantRows := append([]robustness.Metrics(nil), want[i].Metrics...)
		for _, h := range want[i].Heuristics {
			wantRows = append(wantRows, h.Metrics)
		}
		nRandom := len(want[i].Metrics)
		for r, m := range c.metrics {
			t.rows++
			if r < len(wantRows) && sameMetrics(m, wantRows[r]) {
				t.matched++
			} else if r >= nRandom {
				g.fail(specs[i].Name, "traced heuristic row %d differs from the untraced result", r-nRandom)
			}
		}
	}
	return t, nil
}

// traceCase runs one case of the traced pass.
func traceCase(ctx context.Context, rec *recorder, pool *runner.Pool, i int, spec experiment.CaseSpec,
	cfg experiment.Config, params robustness.Params, hs []heuristics.Entry, nRandom int, putCache *runner.Cache) (tracedCase, error) {
	acc, err := cfg.EvalAccuracyValue()
	if err != nil {
		return tracedCase{}, err
	}
	cs := rec.begin("case", -1, i)
	defer rec.end(cs)
	var (
		c  tracedCase
		ec *makespan.EvalCache
	)
	err = pool.Batch(ctx, 1, func(int) error {
		sp := rec.begin("experiment.build", cs, i)
		scen, err := spec.BuildScenario()
		rec.end(sp)
		if err != nil {
			return err
		}
		c.scen = scen
		ec = makespan.NewEvalCacheAccuracy(scen, acc)
		// The derivation experiment.RunCaseOn uses, so this pass draws
		// the schedules the untraced run evaluated and the traced and
		// untraced wall times compare like work.
		rng := rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
		sp = rec.begin("heuristics.draw", cs, i)
		c.scheds = heuristics.RandomSchedules(scen, nRandom, rng)
		rec.end(sp)
		return nil
	})
	if err != nil {
		return c, fmt.Errorf("case %s: %w", spec.Name, err)
	}
	c.scheds = append(c.scheds, make([]*schedule.Schedule, len(hs))...)
	c.metrics = make([]robustness.Metrics, len(c.scheds))
	err = pool.Batch(ctx, nRandom, func(j int) error {
		var err error
		c.metrics[j], err = evalTraced(rec, cs, i, ec, c.scheds[j], params)
		return err
	})
	if err != nil {
		return c, fmt.Errorf("case %s: %w", spec.Name, err)
	}
	err = pool.Batch(ctx, len(hs), func(j int) error {
		sp := rec.begin("heuristics."+hs[j].Name, cs, i)
		r, err := hs[j].Fn(c.scen)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", hs[j].Name, err)
		}
		c.scheds[nRandom+j] = r.Schedule
		c.metrics[nRandom+j], err = evalTraced(rec, cs, i, ec, r.Schedule, params)
		return err
	})
	if err != nil {
		return c, fmt.Errorf("case %s: %w", spec.Name, err)
	}
	var corr [][]float64
	err = pool.Batch(ctx, 1, func(int) error {
		sp := rec.begin("stats.corr", cs, i)
		defer rec.end(sp)
		var err error
		corr, err = stats.CorrMatrix(experiment.InvertedColumns(c.metrics[:nRandom]))
		return err
	})
	if err != nil {
		return c, fmt.Errorf("case %s: %w", spec.Name, err)
	}
	if putCache != nil {
		res := &experiment.CaseResult{Spec: spec, Metrics: c.metrics[:nRandom], Corr: corr}
		for j, h := range hs {
			res.Heuristics = append(res.Heuristics, experiment.HeuristicResult{Name: h.Name, Metrics: c.metrics[nRandom+j]})
		}
		data, err := json.Marshal(res)
		if err != nil {
			return c, err
		}
		key, err := experiment.CaseCacheKey(spec, cfg)
		if err != nil {
			return c, err
		}
		sp := rec.begin("runner.cache_put", cs, i)
		err = putCache.Put(key, data)
		rec.end(sp)
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// evalTraced is experiment's per-schedule evaluation (EvalCache.Model,
// then EvalModel.Metrics) split into its layer calls.
func evalTraced(rec *recorder, parent, caseID int, ec *makespan.EvalCache, s *schedule.Schedule, p robustness.Params) (robustness.Metrics, error) {
	sp := rec.begin("makespan.model", parent, caseID)
	m, err := ec.Model(s)
	rec.end(sp)
	if err != nil {
		return robustness.Metrics{}, err
	}
	sp = rec.begin("makespan.classic", parent, caseID)
	rv := m.Classic()
	rec.end(sp)
	sp = rec.begin("makespan.slacks", parent, caseID)
	slacks := m.Slacks()
	rec.end(sp)
	sp = rec.begin("robustness.metrics", parent, caseID)
	defer rec.end(sp)
	return robustness.FromDistributionSlacks(rv, slacks, p), nil
}

// sameMetrics reports whether two metric vectors are bit-identical.
func sameMetrics(a, b robustness.Metrics) bool {
	va, vb := a.Vector(), b.Vector()
	for k := range va {
		if math.Float64bits(va[k]) != math.Float64bits(vb[k]) {
			return false
		}
	}
	return true
}

// layerStats sums the traced spans' self times by layer.
type layerStats struct {
	selfS     map[string]float64
	calls     map[string]int
	classicMS []float64 // duration of every makespan.classic span
}

func summarize(spans []span) layerStats {
	ls := layerStats{selfS: map[string]float64{}, calls: map[string]int{}}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		ls.selfS[s.Name] += float64(self) / 1e9
		ls.calls[s.Name]++
		if s.Name == "makespan.classic" {
			ls.classicMS = append(ls.classicMS, float64(s.End-s.Start)/1e6)
		}
	}
	return ls
}
