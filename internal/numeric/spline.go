package numeric

import "fmt"

// Spline is a natural cubic spline through a set of strictly increasing
// knots. It reproduces the cubic-spline interpolation the paper uses to
// resample 64-point densities.
type Spline struct {
	x, y       []float64
	m          []float64 // second derivatives at the knots
	extrapZero bool
}

// SplineScratch holds the Thomas-algorithm work arrays of a spline fit,
// so hot loops can rebuild splines without allocating. The zero value is
// ready to use.
type SplineScratch struct {
	b, c, d []float64
}

func (ws *SplineScratch) grow(n int) (b, c, d []float64) {
	if cap(ws.b) < n {
		ws.b = make([]float64, n)
		ws.c = make([]float64, n)
		ws.d = make([]float64, n)
	}
	return ws.b[:n], ws.c[:n], ws.d[:n]
}

// NewSpline builds a natural cubic spline through (x[i], y[i]). x must be
// strictly increasing and have at least 2 points.
func NewSpline(x, y []float64) (*Spline, error) {
	s := &Spline{}
	var ws SplineScratch
	if err := s.fit(x, y, &ws, true); err != nil {
		return nil, err
	}
	return s, nil
}

// Fit (re)initializes the spline over x and y without copying them: the
// caller must keep both slices alive and unmodified for the spline's
// lifetime. The second-derivative vector and the scratch arrays are
// reused across calls, so steady-state refits are allocation-free. The
// fitted spline is bit-for-bit identical to NewSpline(x, y).
func (s *Spline) Fit(x, y []float64, ws *SplineScratch) error {
	s.extrapZero = false
	return s.fit(x, y, ws, false)
}

func (s *Spline) fit(x, y []float64, ws *SplineScratch, copyKnots bool) error {
	n := len(x)
	if n != len(y) {
		return fmt.Errorf("numeric: spline needs len(x)==len(y), got %d and %d", n, len(y))
	}
	if n < 2 {
		return fmt.Errorf("numeric: spline needs at least 2 points, got %d", n)
	}
	for i := 1; i < n; i++ {
		if x[i] <= x[i-1] {
			return fmt.Errorf("numeric: spline knots must be strictly increasing at index %d", i)
		}
	}
	if copyKnots {
		s.x = append(s.x[:0], x...)
		s.y = append(s.y[:0], y...)
	} else {
		s.x, s.y = x, y
	}
	if cap(s.m) < n {
		s.m = make([]float64, n)
	}
	s.m = s.m[:n]
	b, c, d := ws.grow(n)
	solveNatural(x, y, s.m, b, c, d)
	return nil
}

// solveNatural writes into m the second derivatives of the natural
// cubic spline through (x[i], y[i]), using b, c and d (each as long as
// x) for the Thomas pivots, super-diagonal and right side.
//
// Row i of the tridiagonal system is
// hi*m[i-1] + 2(hi+hi1)*m[i] + hi1*m[i+1] = d[i]; the boundary rows are
// m = 0. Each row is set up and eliminated in one pass, with the
// previous row's pivot, c and d and its slope (y[i+1]-y[i])/hi1 carried
// in registers so the serial division chain never waits on memory. The
// arithmetic, boundary rows included, is that of the textbook set-up
// loop followed by the forward sweep.
func solveNatural(x, y, m, b, c, d []float64) {
	n := len(x)
	if n <= 2 {
		for i := range m[:n] {
			m[i] = 0 // a point or a linear segment; second derivatives stay zero
		}
		return
	}
	x, y, m, b, c, d = x[:n], y[:n], m[:n], b[:n], c[:n], d[:n]
	bp, cp, dp := 1.0, 0.0, 0.0 // row 0
	b[0], c[0], d[0] = bp, cp, dp
	hi := x[1] - x[0]
	s0 := (y[1] - y[0]) / hi
	for i := 1; i < n-1; i++ {
		hi1 := x[i+1] - x[i]
		s1 := (y[i+1] - y[i]) / hi1
		w := hi / bp
		bp = 2*(hi+hi1) - w*cp
		dp = 6*(s1-s0) - w*dp
		cp = hi1
		b[i], c[i], d[i] = bp, cp, dp
		hi, s0 = hi1, s1
	}
	w := 0 / bp // row n-1 has sub-diagonal 0, pivot 1 and right side 0
	mi := (0 - w*dp) / (1 - w*cp)
	m[n-1] = mi
	for i := n - 2; i >= 0; i-- {
		mi = (d[i] - c[i]*mi) / b[i]
		m[i] = mi
	}
}

// SetExtrapolateZero makes out-of-range evaluations return 0 instead of
// clamping to the boundary value. Useful for probability densities whose
// support is exactly the knot range.
func (s *Spline) SetExtrapolateZero(zero bool) { s.extrapZero = zero }

// At evaluates the spline at t. Outside the knot range the value is
// either the nearest boundary value or 0, depending on
// SetExtrapolateZero.
func (s *Spline) At(t float64) float64 {
	n := len(s.x)
	if t <= s.x[0] {
		if t == s.x[0] { //reprovet:allow floateq exact knot hit returns the knot value; below-range behavior differs
			return s.y[0]
		}
		if s.extrapZero {
			return 0
		}
		return s.y[0]
	}
	if t >= s.x[n-1] {
		if t == s.x[n-1] { //reprovet:allow floateq exact knot hit returns the knot value; above-range behavior differs
			return s.y[n-1]
		}
		if s.extrapZero {
			return 0
		}
		return s.y[n-1]
	}
	// Binary search for the segment containing t.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.x[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s.segmentAt(lo, t)
}

// segmentAt evaluates the cubic on segment [x[lo], x[lo+1]] at t.
func (s *Spline) segmentAt(lo int, t float64) float64 {
	hi := lo + 1
	h := s.x[hi] - s.x[lo]
	A := (s.x[hi] - t) / h
	B := (t - s.x[lo]) / h
	return A*s.y[lo] + B*s.y[hi] +
		((A*A*A-A)*s.m[lo]+(B*B*B-B)*s.m[hi])*h*h/6
}

// Resample evaluates the spline on a uniform grid of n points spanning
// [lo, hi] inclusive.
func (s *Spline) Resample(lo, hi float64, n int) []float64 {
	return s.ResampleInto(make([]float64, n), lo, hi)
}

// ResampleInto is Resample writing into a caller-owned slice whose
// length selects the grid size. The evaluation points are visited in
// increasing order, so the containing segment is tracked with a forward
// walk instead of a per-point binary search, and the run of points that
// share a segment is evaluated together (four at a time with AVX2); each
// point's value is bit-identical to At.
func (s *Spline) ResampleInto(out []float64, lo, hi float64) []float64 {
	n := len(out)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = s.At(lo)
		return out
	}
	step := (hi - lo) / float64(n-1)
	if step <= 0 { // non-increasing grid: fall back to direct evaluation
		for i := range out {
			out[i] = s.At(lo + float64(i)*step)
		}
		return out
	}
	nx := len(s.x)
	seg := 0
	for i := 0; i < n; {
		t := lo + float64(i)*step
		switch {
		case t <= s.x[0]:
			if t == s.x[0] || !s.extrapZero { //reprovet:allow floateq exact knot hit returns the knot value; below-range behavior differs
				out[i] = s.y[0]
			} else {
				out[i] = 0
			}
			i++
		case t >= s.x[nx-1]:
			if t == s.x[nx-1] || !s.extrapZero { //reprovet:allow floateq exact knot hit returns the knot value; above-range behavior differs
				out[i] = s.y[nx-1]
			} else {
				out[i] = 0
			}
			i++
		default:
			// Same segment as At's binary search: the largest lo with
			// x[lo] <= t (t < x[nx-1] keeps seg < nx-1). The grid is
			// nondecreasing, so the points up to the next knot share it.
			for seg+1 < nx-1 && s.x[seg+1] <= t {
				seg++
			}
			j := i + 1
			for j < n && lo+float64(j)*step < s.x[seg+1] {
				j++
			}
			s.segmentRun(out[i:j], i, lo, step, seg)
			i = j
		}
	}
	return out
}

// segmentRun evaluates segment seg at the grid points lo + k*step,
// k = k0, ..., k0+len(out)-1, which all lie in [x[seg], x[seg+1]).
func (s *Spline) segmentRun(out []float64, k0 int, lo, step float64, seg int) {
	k := 0
	if useAVX2 && len(out) >= 4 {
		k = len(out) &^ 3
		segmentRowAVX2(out[:k], float64(k0), lo, step,
			s.x[seg], s.x[seg+1], s.y[seg], s.y[seg+1], s.m[seg], s.m[seg+1])
	}
	for ; k < len(out); k++ {
		out[k] = s.segmentAt(seg, lo+float64(k0+k)*step)
	}
}
