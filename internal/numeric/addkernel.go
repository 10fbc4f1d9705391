package numeric

import (
	"errors"
	"math"
)

// splineWindow is the number of knots kept on each side of an output
// sample's knot segment when ConvolveResampleInto solves the spline
// locally. A natural spline's second derivatives couple to a knot k
// places away by (2−√3)^k ≈ 0.27^k, and 0.27^32 ≈ 6e-19, so the cut-off
// boundary condition of a window moves a sample by less than 1e-18 of
// the density's peak. It is a correctness constant, not a tuning knob:
// at 24 knots the makespan metrics already move by up to 8e-13.
const splineWindow = 32

// knotBlock is a run of convolution knots [lo, hi] solved as one natural
// spline; off is its offset into the AddScratch knot arrays, and need
// the lowest knot whose second derivative a sample reads (hi when none
// does).
type knotBlock struct{ lo, hi, off, need int }

// AddScratch holds the work arrays of ConvolveResampleInto so the Add
// kernel of the makespan evaluation runs without allocating. The zero
// value is ready to use.
type AddScratch struct {
	conv   ConvScratch
	spline SplineScratch
	sp     Spline

	full []float64 // the whole convolution of a shape that goes to FFT
	// Knots, convolution values and second derivatives of the blocks,
	// block after block. The global fit uses x and y for all L knots.
	x, y, m []float64

	x4, y4, m4, b4, c4, d4 []float64 // the same for four blocks, interleaved by knot
	groups                 []laneGroup

	blocks []knotBlock
	seg    []int // per output sample: knot segment, -1 below the knots, L-1 above
	blk    []int // per output sample: index of the block holding its segment
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growFloats returns buf resized to n, reallocating only when capacity
// is short.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ConvolveResampleInto is the tail of the density sum X+Y. It samples at
// the len(out) points of Spline.ResampleInto's uniform grid over
// [lo, hi] the natural cubic spline, extrapolated as zero, through
// c[k] = max(h·(a∗b)[k], 0) on the L = len(a)+len(b)−1 knots
// LinspaceInto places over [lo, lo+(L−1)·h].
//
// Only the knots near the samples are computed. Each sample keeps
// splineWindow knots on each side of its knot segment; overlapping
// windows merge into blocks, the convolution is evaluated at block
// knots only, and each block is solved as its own natural spline. A
// computed convolution value has the bits ConvolveInto gives it. When
// the blocks merge into one that spans every knot, which is the case
// for grids under about 4.2k knots at 64 samples, the result is
// bit-identical to ConvolveInto, then Spline.Fit over the L knots, then
// ResampleInto. Otherwise a sample differs from that global fit by at
// most about 1e-18 of the density's peak.
//
// The error is Spline.Fit's: knots that are not strictly increasing.
func ConvolveResampleInto(out, a, b []float64, h, lo, hi float64, ws *AddScratch) ([]float64, error) {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return out, errors.New("numeric: empty convolution operand")
	}
	L := la + lb - 1
	convHi := lo + float64(L-1)*h
	if !ws.plan(len(out), L, lo, hi, convHi) {
		full := ConvolveInto(growFloats(&ws.y, L), a, b, &ws.conv)
		scaleClamp(full, h)
		xs := LinspaceInto(growFloats(&ws.x, L), lo, convHi)
		if err := ws.sp.Fit(xs, full, &ws.spline); err != nil {
			return out, err
		}
		ws.sp.SetExtrapolateZero(true)
		return ws.sp.ResampleInto(out, lo, hi), nil
	}

	last := ws.blocks[len(ws.blocks)-1]
	nk := last.off + last.hi - last.lo + 1
	x, y := growFloats(&ws.x, nk), growFloats(&ws.y, nk)
	step := (convHi - lo) / float64(L-1)
	var full, bz []float64
	if !directShape(la, lb) {
		full = ConvolveInto(growFloats(&ws.full, L), a, b, &ws.conv)
	} else {
		bz = ws.conv.gatherKernel(b)
	}
	for _, bl := range ws.blocks {
		xb, yb := x[bl.off:bl.off+bl.hi-bl.lo+1], y[bl.off:bl.off+bl.hi-bl.lo+1]
		for j := range xb {
			xb[j] = knotAt(bl.lo+j, L, lo, convHi, step)
		}
		if full != nil {
			copy(yb, full[bl.lo:bl.hi+1])
		} else {
			convolveWindowInto(yb, bl.lo, a, b, bz, &ws.conv.tmp)
		}
	}
	scaleClamp(y, h)
	ws.solveBlocks(nk)

	// Evaluate each sample as ResampleInto would: the knot value on an
	// exact boundary hit, zero beyond the knots, else the cubic of its
	// segment within its block. Samples sharing a segment form a run.
	stepOut := (hi - lo) / float64(len(out)-1)
	for i := 0; i < len(out); {
		bl := ws.blocks[ws.blk[i]]
		k := ws.seg[i]
		t := lo + float64(i)*stepOut
		switch {
		case k < 0:
			out[i] = 0
			if t == x[bl.off] { //reprovet:allow floateq exact knot hit returns the knot value, as in ResampleInto
				out[i] = y[bl.off]
			}
			i++
		case k == L-1:
			end := bl.off + bl.hi - bl.lo
			out[i] = 0
			if t == x[end] { //reprovet:allow floateq exact knot hit returns the knot value, as in ResampleInto
				out[i] = y[end]
			}
			i++
		default:
			j := i + 1
			for j < len(out) && ws.seg[j] == k {
				j++
			}
			n := bl.hi - bl.lo + 1
			sp := Spline{x: x[bl.off : bl.off+n], y: y[bl.off : bl.off+n], m: ws.m[bl.off : bl.off+n]}
			sp.segmentRun(out[i:j], i, lo, stepOut, k-bl.lo)
			i = j
		}
	}
	return out, nil
}

// scaleClamp multiplies every convolution value by the grid step and
// clamps negatives (rounding noise) to zero.
func scaleClamp(v []float64, h float64) {
	for i := range v {
		v[i] *= h
		if v[i] < 0 {
			v[i] = 0
		}
	}
}

// knotAt is knot k of LinspaceInto(L points, lo, convHi).
func knotAt(k, L int, lo, convHi, step float64) float64 {
	if k == L-1 {
		return convHi
	}
	return lo + float64(k)*step
}

// ulp is the distance from |v| to the next larger float64.
func ulp(v float64) float64 {
	v = math.Abs(v)
	return math.Nextafter(v, math.Inf(1)) - v
}

// plan lays out the knot blocks for n output samples on L knots and
// reports whether the windowed path applies. It does not when the
// sampling grid is degenerate, a bound is not finite, the knots are too
// close to their rounding to be certainly increasing (Spline.Fit then
// decides), or the windows merge into one block over every knot.
func (ws *AddScratch) plan(n, L int, lo, hi, convHi float64) bool {
	if n < 2 || L < 2 {
		return false
	}
	step := (convHi - lo) / float64(L-1)
	stepOut := (hi - lo) / float64(n-1)
	for _, v := range [...]float64{lo, hi, convHi, step, stepOut} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	// The knots lo + k·step are strictly increasing when the step beats
	// the rounding of the product, the sum and convHi's own rounding.
	if !(stepOut > 0) || !(step > 16*ulp(math.Max(math.Max(math.Abs(lo), math.Abs(convHi)), float64(L-1)*step))) {
		return false
	}
	return ws.layout(n, L, lo, convHi, step, stepOut)
}

// layout computes each sample's knot segment and window, merges the
// windows into ws.blocks, and reports whether there is more than the
// one block over every knot.
func (ws *AddScratch) layout(n, L int, lo, convHi, step, stepOut float64) bool {
	seg, blk := growInts(&ws.seg, n), growInts(&ws.blk, n)
	ws.blocks = ws.blocks[:0]
	cur := knotBlock{lo: -1, hi: -2}
	for i := range seg {
		t := lo + float64(i)*stepOut
		// A sample beyond the knots reads only the end knot, but takes
		// the end segment's window, so that grids whose windows all
		// merge run as one block wherever the samples fall.
		k := 0
		switch {
		case t <= lo:
			seg[i] = -1
		case t >= convHi:
			seg[i], k = L-1, L-2
		default:
			// The largest k <= L-2 with knot k <= t, as ResampleInto's
			// forward walk finds it; the quotient is only a first guess.
			k = L - 2
			if f := (t - lo) / step; f < float64(L-2) {
				k = int(f)
			}
			for k < L-2 && knotAt(k+1, L, lo, convHi, step) <= t {
				k++
			}
			for k > 0 && knotAt(k, L, lo, convHi, step) > t {
				k--
			}
			seg[i] = k
		}
		wlo, whi := max(0, k-splineWindow), min(L-1, k+1+splineWindow)
		if wlo > cur.hi+1 {
			if cur.hi >= 0 {
				ws.blocks = append(ws.blocks, cur)
			}
			cur = knotBlock{lo: wlo, hi: whi, need: whi}
		} else {
			cur.hi = max(cur.hi, whi)
		}
		if seg[i] >= 0 && seg[i] < L-1 {
			cur.need = min(cur.need, seg[i])
		}
		blk[i] = len(ws.blocks)
	}
	ws.blocks = append(ws.blocks, cur)
	if len(ws.blocks) == 1 && cur.lo == 0 && cur.hi == L-1 {
		return false
	}
	off := 0
	for i := range ws.blocks {
		ws.blocks[i].off = off
		off += ws.blocks[i].hi - ws.blocks[i].lo + 1
	}
	return true
}

// laneBlockMax is the longest block solved in a lane group: four
// windows' worth. Longer blocks, merged from many windows, are rare and
// of mixed lengths, so they are solved one at a time rather than given
// interleaved scratch of their size.
const laneBlockMax = 4 * (2*splineWindow + 2)

// solveBlocks solves every block's natural spline into ws.m. With
// AVX2, blocks of one length, which the evenly spaced interior windows
// are, are solved four at a time, one per vector lane, a short last
// group repeating a block in its spare lanes; the back-substitution
// stops at the lowest knot a sample reads.
func (ws *AddScratch) solveBlocks(nk int) {
	m := growFloats(&ws.m, nk)
	open := ws.groups[:0]
	for i, bl := range ws.blocks {
		n := bl.hi - bl.lo + 1
		if !useAVX2 || n < 3 || n > laneBlockMax {
			b, c, d := ws.spline.grow(n) // the global fit's scratch, idle here
			p := func(v []float64) []float64 { return v[bl.off : bl.off+n] }
			solveNatural(p(ws.x), p(ws.y), p(m), b, c, d)
			continue
		}
		g := 0
		for g < len(open) && open[g].n != n {
			g++
		}
		if g == len(open) {
			open = append(open, laneGroup{n: n})
		}
		open[g].bl[open[g].k] = i
		if open[g].k++; open[g].k == 4 {
			ws.solve4(open[g])
			open[g] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	for _, g := range open {
		for l := g.k; l < 4; l++ {
			g.bl[l] = g.bl[g.k-1]
		}
		ws.solve4(g)
	}
	ws.groups = open[:0]
}

// laneGroup collects up to four blocks of n knots for thomas4AVX2.
type laneGroup struct {
	n, k int    // knots per block, blocks collected
	bl   [4]int // their indices in AddScratch.blocks
}

// solve4 solves the four blocks of g on thomas4AVX2, interleaving their
// knots and values into lanes and m back out of them.
func (ws *AddScratch) solve4(g laneGroup) {
	n := g.n
	x4, y4, m4 := growFloats(&ws.x4, 4*n), growFloats(&ws.y4, 4*n), growFloats(&ws.m4, 4*n)
	b4, c4, d4 := growFloats(&ws.b4, 4*n), growFloats(&ws.c4, 4*n), growFloats(&ws.d4, 4*n)
	var bl [4]knotBlock
	stop := n - 1
	for l, i := range g.bl {
		bl[l] = ws.blocks[i]
		stop = min(stop, max(bl[l].need-bl[l].lo, 0))
	}
	x0, x1, x2, x3 := ws.x[bl[0].off:][:n], ws.x[bl[1].off:][:n], ws.x[bl[2].off:][:n], ws.x[bl[3].off:][:n]
	y0, y1, y2, y3 := ws.y[bl[0].off:][:n], ws.y[bl[1].off:][:n], ws.y[bl[2].off:][:n], ws.y[bl[3].off:][:n]
	for i := range n {
		xr, yr := x4[4*i:][:4], y4[4*i:][:4]
		xr[0], xr[1], xr[2], xr[3] = x0[i], x1[i], x2[i], x3[i]
		yr[0], yr[1], yr[2], yr[3] = y0[i], y1[i], y2[i], y3[i]
	}
	thomas4AVX2(x4, y4, m4, b4, c4, d4, stop)
	m0, m1, m2, m3 := ws.m[bl[0].off:][:n], ws.m[bl[1].off:][:n], ws.m[bl[2].off:][:n], ws.m[bl[3].off:][:n]
	for i := stop; i < n; i++ {
		mr := m4[4*i:][:4]
		m0[i], m1[i], m2[i], m3[i] = mr[0], mr[1], mr[2], mr[3]
	}
}
