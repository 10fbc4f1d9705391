package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/schedule"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	v, pct, ok := tail(xs, tailMinBeyond)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok=%v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}

	// Eleven samples: only the smallest has ten above it.
	v, pct, ok = tail(xs[:11], tailMinBeyond)
	sorted := append([]float64(nil), xs[:11]...)
	sort.Float64s(sorted)
	if !ok || v != sorted[0] || pct != 100.0/11 {
		t.Errorf("tail of 11 samples = %v at p%v (ok=%v), want %v at p%v", v, pct, ok, sorted[0], 100.0/11)
	}
	if _, _, ok := tail(xs[:10], tailMinBeyond); ok {
		t.Error("tail of 10 samples is defined, want none: no sample has 10 above it")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "a1", Parent: 1, Start: 12, End: 15},
		{Name: "d", Parent: 0, Start: 95, End: 120}, // runs past its parent
	}
	// root: 100 minus the union [10,50] ∪ [60,70] ∪ [95,100] = 55.
	want := []int64{45, 17, 30, 10, 3, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestClassicOpsOnHandBuiltSchedule(t *testing.T) {
	g := dag.New(3)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	csr := g.SortedCSR()
	for _, c := range []struct {
		name       string
		place      [][]dag.Task // per-processor order
		adds, maxs int64
	}{
		// Both precedence arcs cross processors and 0→2 sequences
		// processor 0: Adds 3 tasks + 2 comms, Maxes 3 arcs + 1 sink.
		{"split", [][]dag.Task{{0, 2}, {1}}, 5, 4},
		// One processor: no communication, the sequencing arcs coincide
		// with the precedence arcs.
		{"serial", [][]dag.Task{{0, 1, 2}, {}}, 3, 3},
	} {
		s := schedule.New(3, 2)
		for p, order := range c.place {
			for _, task := range order {
				s.Assign(task, p)
			}
		}
		adds, maxs, err := classicOps(csr, s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if adds != c.adds || maxs != c.maxs {
			t.Errorf("%s: %d Adds, %d Maxes; want %d, %d", c.name, adds, maxs, c.adds, c.maxs)
		}
	}
}

func TestDigestStableAcrossRunsAndWorkers(t *testing.T) {
	specs, err := experiment.Sweep{Families: []string{experiment.CholeskyFamily, experiment.RandomFamily},
		Sizes: []int{10}, ULs: []float64{1.1}}.Cases(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.DefaultConfig()
	cfg.Schedules = 8
	var first string
	for _, workers := range []int{1, 2, 1} {
		cfg.Workers = workers
		res, err := experiment.AggregateCases(context.Background(), specs, cfg, experiment.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := digest(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 64 {
			t.Fatalf("digest %q is not a hex sha256", d)
		}
		if first == "" {
			first = d
			res.Cases[0].Metrics[0].Makespan++
			if changed, _ := digest(res); changed == d {
				t.Error("digest did not change with a result value")
			}
			continue
		}
		if d != first {
			t.Errorf("digest at %d workers = %s, want %s", workers, d, first)
		}
	}
}

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSmokeEveryWorkload runs each workload at tiny scale, untraced and
// traced, and checks the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	ws, err := workloads("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames(ws) {
		for _, trace := range []string{"0", "1"} {
			code, stdout, stderr := runBench(t, "--workload", name, "--scale", "tiny", "--seed", "2", "--seconds", "0.2", "--trace", trace)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, stderr)
			}
			lines := strings.Split(strings.TrimSpace(stdout), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", name, trace, err, stdout)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stdout)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestProbeReusedOnlyByUntracedRuns checks that a second untraced run of
// one binary reuses the stored probe metrics unchanged, and that a
// traced run recomputes them.
func TestProbeReusedOnlyByUntracedRuns(t *testing.T) {
	out := t.TempDir()
	var lines []string
	for _, trace := range []string{"0", "0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--workload", "large-ref", "--scale", "tiny", "--seconds", "0", "--trace", trace, "--out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s", trace, code, stderr.String())
		}
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, "probe:") || strings.HasPrefix(l, "metric makespan_relerr") {
				lines = append(lines, l)
			}
		}
	}
	if len(lines) != 5 {
		t.Fatalf("got lines %q", lines)
	}
	if !strings.HasSuffix(lines[0], "computed") || !strings.Contains(lines[2], "reused") || !strings.HasSuffix(lines[4], "computed") {
		t.Errorf("probe lines %q: want computed, reused, computed", []string{lines[0], lines[2], lines[4]})
	}
	if lines[1] != lines[3] {
		t.Errorf("reused probe metric %q differs from computed %q", lines[3], lines[1])
	}
}

func TestRejectsBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "large-ref", "--trace", "2"},
		{"--workload", "large-ref", "--scale", "huge"},
	} {
		code, stdout, _ := runBench(t, args...)
		if code == 0 || stdout != "" {
			t.Errorf("%v: exit %d with output %q, want a failure and no result", args, code, stdout)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in one agreement.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(ws), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s (%s), benchmark has %s (%s)", c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
