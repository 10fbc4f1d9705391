package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/dag"
	"repro/internal/experiment"
	"repro/internal/schedule"
)

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is the number of samples a reported tail percentile
// must have above it.
const tailMinBeyond = 10

// tail returns the highest-ranked sample that still has minBeyond
// samples above it, and the percentile it sits at: the share of
// samples at or below it, in percent. ok is false when there are not
// more than minBeyond samples, so no sample qualifies.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

// digest is the sha256 of the encoded sweep result, the bytes
// `cmd/experiments -json` would write for it.
func digest(res *experiment.Fig6Result) (string, error) {
	h := sha256.New()
	if err := experiment.WriteJSON(h, res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// classicOps counts the operator calls EvalModel.Classic makes on one
// schedule, from its compiled disjunctive graph and placement: an Add
// per task (its duration) and per cross-processor arc (its
// communication), and a Max per disjunctive arc and per sink. csr must
// be the graph's SortedCSR.
func classicOps(csr *dag.CSR, s *schedule.Schedule) (adds, maxes int64, err error) {
	d, err := s.CompileDisjunctive(csr)
	if err != nil {
		return 0, 0, err
	}
	adds = int64(d.N)
	for t := 0; t < d.N; t++ {
		for k := d.PredStart[t]; k < d.PredStart[t+1]; k++ {
			if s.Proc[d.PredTask[k]] != s.Proc[t] {
				adds++
			}
		}
	}
	return adds, int64(len(d.PredTask) + len(d.Sinks)), nil
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string `json:"name"`
	Case   int    `json:"case"`   // index of the case in the sweep, -1 outside cases
	Parent int    `json:"parent"` // index of the enclosing span, -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (a case's evaluations run in parallel), so the covered part
// is the length of the union of their intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	type interval struct{ lo, hi int64 }
	for i, s := range spans {
		ivs := make([]interval, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, iv := range ivs {
			if iv.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv.lo, iv.hi
			} else if iv.hi > curHi {
				curHi = iv.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
