// Command perfbench is the repository benchmark. It runs real sweep
// cells through experiment.AggregateCases — the path behind
// `cmd/experiments -fig sweep` — on a named workload, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run also drives the same cases
// through the layers' public functions with a span around each call,
// and the metrics are the per-layer ones.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload large-ref --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is the source commit, set at build time by run.sh.
var commit = "unknown"

// runDeadline bounds one invocation, under the 180 s a run may take.
const runDeadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	probe    int64 // base seed of the accuracy probe grid
	seconds  float64
	trace    bool
	scale    string
	workdir  string // per-run scratch directory (caches); removed at exit
	outdir   string // where the result and span files are written
	workers  int
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"evals_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"makespan_relerr", "ratio"},
	{"std_relerr", "ratio"},
	{"ks_vs_mc", "ratio"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"experiment.build_s", "s"},
	{"experiment.build_calls", "count"},
	{"heuristics.draw_s", "s"},
	{"heuristics.HEFT_s", "s"},
	{"heuristics.BIL_s", "s"},
	{"heuristics.HBMCT_s", "s"},
	{"makespan.model_s", "s"},
	{"makespan.model_calls", "count"},
	{"makespan.classic_s", "s"},
	{"makespan.classic_calls", "count"},
	{"makespan.classic_ms_p50", "ms"},
	{"makespan.classic_ms_tail", "ms"},
	{"makespan.classic_tail_pct", "%"},
	{"makespan.classic_share", "ratio"},
	{"makespan.slacks_s", "s"},
	{"robustness.metrics_s", "s"},
	{"stats.corr_s", "s"},
	{"stochastic.add_ops", "count"},
	{"stochastic.max_ops", "count"},
	{"stochastic.ns_per_op", "ns"},
	{"runner.cache_put_s", "s"},
	{"runner.cache_get_s", "s"},
	{"runner.cache_bytes", "B"},
	{"runner.cache_hits", "count"},
	{"runner.quarantines", "count"},
	{"runner.cpu_util", "ratio"},
	{"resilience.retries", "count"},
	{"resilience.degraded", "count"},
	{"resilience.failed_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"schedule.mc_s", "s"},
	{"schedule.mc_ns_per_task_realization", "ns"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ws, err := workloads(o.scale)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := ws[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(ws), ", "))
		return 2
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.workdir, err = os.MkdirTemp(o.outdir, o.workload+"-run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := measure(ctx, w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: large-ref, large-fast or paper-small")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (case seeds derive from it)")
	fs.Int64Var(&o.probe, "probe-seed", 1, "base seed of the Monte-Carlo accuracy probe grid")
	fs.Float64Var(&o.seconds, "seconds", 10, "repeat the workload until this much AggregateCases time is measured (one repetition at least)")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for smoke tests")
	fs.StringVar(&o.outdir, "out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 0 || math.IsNaN(o.seconds) {
		return o, fmt.Errorf("--seconds must be non-negative")
	}
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	return o, nil
}

// environment describes where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnvironment(workers int) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: commit,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return env
}

// record is the result file written next to the spans: the printed
// result plus what it was measured on.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Probe    int64       `json:"probe_seed"`
	Trace    bool        `json:"trace"`
	Scale    string      `json:"scale"`
	Env      environment `json:"env"`
	Digest   string      `json:"digest"`
	Reps     int         `json:"repetitions"`
	Failures []string    `json:"failures,omitempty"`
	Result   result      `json:"result"`
}

// measure runs a workload and assembles its result.
func measure(ctx context.Context, w workload, o options, stdout io.Writer) (result, error) {
	env := currentEnvironment(o.workers)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d probe-seed=%d trace=%t scale=%s seconds=%g\n", w.name, o.seed, o.probe, o.trace, o.scale, o.seconds)
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d workers=%d go=%s cpu=%q commit=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.Workers, env.GoVersion, env.CPUModel, env.Commit)

	u, err := measureUntraced(ctx, w, o)
	if err != nil {
		return result{}, err
	}
	for rep, wall := range u.wallS {
		fmt.Fprintf(stdout, "repetition %d: %d cases in %.3f s (%.3f CPU s), %.4g evals/s\n", rep, len(u.specs), wall, u.cpuS[rep], u.evalsPerS[rep])
	}
	fmt.Fprintf(stdout, "digest: sha256 %s over %d repetition(s)\n", u.digest, len(u.wallS))

	checked, err := checkHeuristicRows(ctx, w, o, u.last, &u.gateResult)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "check: %d heuristic rows reproduced by EvalModel.Classic\n", checked)
	a, reused, err := probeOnce(ctx, w, o, o.trace)
	if err != nil {
		return result{}, err
	}
	how := "computed"
	if reused {
		how = "reused from an earlier run of this binary"
	}
	fmt.Fprintf(stdout, "probe: %d schedules (probe seed %d) against %d exact Monte-Carlo realizations each, %.2f s, %s\n",
		a.Schedules, o.probe, w.mcRealizations, a.MCS, how)
	for _, p := range a.Pins {
		fmt.Fprintf(stdout, "pin: %s %s: E(M) %.6g σ_M %.6g, Monte Carlo %.6g σ %.6g\n", p.Case, p.Name, p.Makespan, p.StdDev, p.MCMean, p.MCStd)
	}

	var metrics map[string]float64
	var t *traced
	if o.trace {
		if t, err = runTraced(ctx, w, o, u, &u.gateResult); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "trace: %d spans in %.3f s; %d/%d rows bit-identical to the untraced run\n", len(t.spans), t.wallS, t.matched, t.rows)
		metrics = layerMetrics(u, a, t)
	} else {
		metrics = map[string]float64{
			"evals_per_s":     median(u.evalsPerS),
			"setup_s":         median(u.setupS),
			"peak_rss_mb":     u.peakRSSMB,
			"makespan_relerr": a.MakespanRel,
			"std_relerr":      a.StdRel,
			"ks_vs_mc":        a.KS,
		}
	}

	g := &u.gateResult
	if g.roundedCorr > 0 {
		fmt.Fprintf(stdout, "note: %d correlation entries exceed ±1 by rounding only (largest excess %.3g)\n", g.roundedCorr, g.maxExcess)
	}
	for _, name := range g.order {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", name, g.failed[name])
	}
	res := result{
		Correct:   len(g.order) == 0,
		Attempted: u.attempted,
		Failed:    min(len(g.order), u.attempted),
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := metrics[d.name]
		fmt.Fprintf(stdout, "metric %-40s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	rec := record{Workload: w.name, Seed: o.seed, Probe: o.probe, Trace: o.trace, Scale: o.scale, Env: env, Digest: u.digest, Reps: len(u.wallS), Result: res}
	for _, name := range g.order {
		rec.Failures = append(rec.Failures, name+": "+g.failed[name])
	}
	base := filepath.Join(o.outdir, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, btoi(o.trace)))
	if err := writeJSON(base+".json", rec); err != nil {
		return result{}, err
	}
	if t != nil {
		if err := writeJSON(base+"-spans.json", t.spans); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerMetrics derives the per-layer metrics of a traced invocation.
func layerMetrics(u *untraced, a *accuracy, t *traced) map[string]float64 {
	ls := summarize(t.spans)
	m := map[string]float64{
		"experiment.build_s":      ls.selfS["experiment.build"],
		"experiment.build_calls":  float64(ls.calls["experiment.build"]),
		"heuristics.draw_s":       ls.selfS["heuristics.draw"],
		"heuristics.HEFT_s":       ls.selfS["heuristics.HEFT"],
		"heuristics.BIL_s":        ls.selfS["heuristics.BIL"],
		"heuristics.HBMCT_s":      ls.selfS["heuristics.HBMCT"],
		"makespan.model_s":        ls.selfS["makespan.model"],
		"makespan.model_calls":    float64(ls.calls["makespan.model"]),
		"makespan.classic_s":      ls.selfS["makespan.classic"],
		"makespan.classic_calls":  float64(ls.calls["makespan.classic"]),
		"makespan.classic_ms_p50": median(ls.classicMS),
		"makespan.slacks_s":       ls.selfS["makespan.slacks"],
		"robustness.metrics_s":    ls.selfS["robustness.metrics"],
		"stats.corr_s":            ls.selfS["stats.corr"],
		"stochastic.add_ops":      float64(t.addOps),
		"stochastic.max_ops":      float64(t.maxOps),
		"runner.cache_put_s":      ls.selfS["runner.cache_put"],
		"runner.cache_get_s":      ls.selfS["runner.cache_get"],
		"runner.cache_bytes":      float64(t.cacheBytes),
		"runner.cache_hits":       float64(t.cacheHits),
		"runner.quarantines":      float64(t.quarantines),
		"runner.cpu_util":         u.cpuUtil,
		"resilience.retries":      float64(u.retries),
		"resilience.degraded":     float64(u.degraded),
		"resilience.failed_frac":  float64(len(u.gateResult.order)) / float64(u.attempted),
		"go.alloc_mb":             u.allocMB,
		"go.mallocs":              float64(u.mallocs),
		"go.gc_cycles":            float64(u.gcCycles),
		"go.gc_cpu_frac":          u.gcCPUFrac,
		"schedule.mc_s":           a.MCS,
		"trace.overhead_frac":     t.wallS/median(u.wallS) - 1,
	}
	if v, pct, ok := tail(ls.classicMS, tailMinBeyond); ok {
		m["makespan.classic_ms_tail"], m["makespan.classic_tail_pct"] = v, pct
	}
	if ops := t.addOps + t.maxOps; ops > 0 {
		m["stochastic.ns_per_op"] = ls.selfS["makespan.classic"] * 1e9 / float64(ops)
	}
	if a.MCTaskSamples > 0 {
		m["schedule.mc_ns_per_task_realization"] = a.MCS * 1e9 / a.MCTaskSamples
	}
	// Layers are every span name but the case span, whose self time is
	// the case goroutine waiting on the pool.
	names := make([]string, 0, len(ls.selfS))
	for name := range ls.selfS {
		if name != "case" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var total float64
	for _, name := range names {
		total += ls.selfS[name]
	}
	if total > 0 {
		m["makespan.classic_share"] = ls.selfS["makespan.classic"] / total
	}
	return m
}
