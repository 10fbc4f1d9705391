package numeric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracles below are the scalar loops the AVX2 kernels and the fused
// spline solve replaced, kept verbatim. Every production path must match
// them bit for bit, on any CPU.

// convolveDirectIntoRef is the scalar direct-convolution loop.
func convolveDirectIntoRef(out, a, b []float64) []float64 {
	for i := range out {
		out[i] = 0
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// thomasRef is the three-loop Thomas solve (set-up, forward sweep,
// back-substitution) of the natural cubic spline's second derivatives.
func thomasRef(x, y []float64) []float64 {
	n := len(x)
	m := make([]float64, n)
	if n == 2 {
		return m
	}
	a, b, c, d := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	a[n-1], c[0], d[0], d[n-1] = 0, 0, 0, 0
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		hi := x[i] - x[i-1]
		hi1 := x[i+1] - x[i]
		a[i] = hi
		b[i] = 2 * (hi + hi1)
		c[i] = hi1
		d[i] = 6 * ((y[i+1]-y[i])/hi1 - (y[i]-y[i-1])/hi)
	}
	for i := 1; i < n; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		d[i] -= w * d[i-1]
	}
	m[n-1] = d[n-1] / b[n-1]
	for i := n - 2; i >= 0; i-- {
		m[i] = (d[i] - c[i]*m[i+1]) / b[i]
	}
	return m
}

// resampleIntoRef is the scalar forward walk of ResampleInto, one
// segmentAt call per point.
func resampleIntoRef(s *Spline, out []float64, lo, hi float64) []float64 {
	n := len(out)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = s.At(lo)
		return out
	}
	step := (hi - lo) / float64(n-1)
	if step <= 0 {
		for i := range out {
			out[i] = s.At(lo + float64(i)*step)
		}
		return out
	}
	nx := len(s.x)
	seg := 0
	for i := range out {
		t := lo + float64(i)*step
		switch {
		case t <= s.x[0]:
			if t == s.x[0] || !s.extrapZero {
				out[i] = s.y[0]
			} else {
				out[i] = 0
			}
		case t >= s.x[nx-1]:
			if t == s.x[nx-1] || !s.extrapZero {
				out[i] = s.y[nx-1]
			} else {
				out[i] = 0
			}
		default:
			for seg+1 < nx-1 && s.x[seg+1] <= t {
				seg++
			}
			out[i] = s.segmentAt(seg, t)
		}
	}
	return out
}

// sameBits reports the first index where got and want differ in any
// bit, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// convOperand draws n values mixing the cases a density grid can hold
// with the ones it should not but the kernel must still agree on: exact
// zeros of both signs, negatives, subnormals, and (when specials) ±Inf
// and NaN.
func convOperand(rng *rand.Rand, n int, specials bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r := rng.Intn(20); {
		case r < 3:
			v[i] = 0
		case r == 3:
			v[i] = math.Copysign(0, -1)
		case r == 4:
			v[i] = float64(rng.Intn(1000)+1) * math.SmallestNonzeroFloat64
		case r == 5:
			v[i] = -rng.ExpFloat64()
		case r == 6 && specials:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case r == 7 && specials:
			v[i] = math.NaN()
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return v
}

func checkConvolveDirect(t *testing.T, a, b []float64) {
	t.Helper()
	n := len(a) + len(b) - 1
	got := convolveDirectInto(make([]float64, n), a, b, &ConvScratch{})
	want := convolveDirectIntoRef(make([]float64, n), a, b)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%d×%d: direct convolution diverges at %d: %x != %x",
			len(a), len(b), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// The direct convolution, which runs on the AVX2 gather kernel where
// the CPU has it and both operands are finite, must match the scalar
// loop bit for bit on every shape and value class, in both operand
// orientations.
func TestConvolveDirectMatchesScalarLoop(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{8192, 64}, {64, 8192}, {1, 1}, {1, 300}, {300, 1}, {7, 8}, {8, 7}, {9, 17}}
	for len(shapes) < 400 {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	for _, sh := range shapes {
		a := convOperand(rng, sh[0], false)
		b := convOperand(rng, sh[1], false)
		checkConvolveDirect(t, a, b)
		checkConvolveDirect(t, b, a)
		checkConvolveDirect(t, a, convOperand(rng, sh[1], true))
	}
}

// FuzzConvolveDirect feeds arbitrary float64 bit patterns, NaN payloads
// and signaling NaNs included, through the direct convolution and the
// scalar loop. The seed corpus runs under plain go test.
func FuzzConvolveDirect(f *testing.F) {
	bits := func(vs ...float64) []byte {
		buf := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		return buf
	}
	f.Add(bits(1, 2, 3), uint16(1))
	f.Add(bits(0.5, 0, -0.25, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17), uint16(4))
	f.Add(bits(1e-310, 0, 2, math.Inf(1), math.NaN(), 1, 2, 3, 4, 5, 6, 7, math.Inf(-1), 8, 9), uint16(3))
	f.Add(bits(math.Inf(1), -1, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, math.Inf(-1), math.NaN()), uint16(2))
	// Raw little-endian words: a signaling NaN, a negative quiet NaN and
	// a positive quiet NaN with distinct payloads, -Inf, then arbitrary
	// bytes.
	f.Add(append(bits(2, math.Inf(1)), 1, 0, 0, 0, 0, 0, 0xf0, 0x7f, 7, 0, 0, 0, 0, 0, 0xf8, 0xff,
		1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vs) < 2 {
			return
		}
		k := 1 + int(split)%(len(vs)-1)
		checkConvolveDirect(t, vs[:k], vs[k:])
		checkConvolveDirect(t, vs[k:], vs[:k])
	})
}

// splineKnots returns n knots over [lo, hi]: the uniform grid the
// makespan evaluation fits on, or strictly increasing random steps.
func splineKnots(rng *rand.Rand, n int, lo, hi float64, uniform bool) []float64 {
	if uniform {
		return LinspaceInto(make([]float64, n), lo, hi)
	}
	x := make([]float64, n)
	x[0] = lo
	for i := 1; i < n; i++ {
		x[i] = x[i-1] + (hi-lo)/float64(n-1)*(0.05+2*rng.Float64())
	}
	return x
}

// splineValues returns n density-like values: nonnegative bumps with
// runs of exact zeros, or signed noise.
func splineValues(rng *rand.Rand, n int, density bool) []float64 {
	y := make([]float64, n)
	for i := range y {
		if density {
			if rng.Intn(5) > 0 {
				y[i] = math.Abs(math.Sin(float64(i)*0.01)) * rng.Float64()
			}
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	return y
}

// The fused single-pass fit must reproduce the three-loop Thomas solve
// bit for bit, second derivative by second derivative.
func TestSplineFitMatchesThomas(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := &SplineScratch{}
	sp := &Spline{}
	for _, n := range []int{2, 3, 4, 5, 64, 8255, 129, 3, 1000} {
		for _, uniform := range []bool{true, false} {
			for _, density := range []bool{true, false} {
				lo := rng.NormFloat64() * 100
				x := splineKnots(rng, n, lo, lo+1+rng.Float64()*5000, uniform)
				y := splineValues(rng, n, density)
				if err := sp.Fit(x, y, ws); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(sp.m, thomasRef(x, y)); i >= 0 {
					t.Fatalf("n=%d uniform=%v density=%v: fused fit diverges at m[%d]", n, uniform, density, i)
				}
			}
		}
	}
}

// ResampleInto, which evaluates each segment's run of grid points four
// at a time with AVX2 where the CPU has it, must match the per-point
// scalar walk bit for bit: on uniform and non-uniform knots, with and
// without zero extrapolation, and on grids that hit the knots exactly.
func TestResampleIntoMatchesScalarWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nk := range []int{2, 3, 4, 8255, 64} {
		for _, uniform := range []bool{true, false} {
			lo := rng.NormFloat64() * 50
			x := splineKnots(rng, nk, lo, lo+10+rng.Float64()*1000, uniform)
			y := splineValues(rng, nk, uniform)
			sp, err := NewSpline(x, y)
			if err != nil {
				t.Fatal(err)
			}
			x0, xn := x[0], x[nk-1]
			w := xn - x0
			spans := [][2]float64{
				{x0, xn},
				{x0 - 0.1*w, xn + 0.1*w},
				{x0 + 0.3*w, x0 + 0.6*w},
				{x[nk/2], x[nk/2] + 1e-3*w},
			}
			sizes := []int{1, 2, 3, 5, 8, 64, 257, 8192}
			// Grids of (nk-1)*r+1 points over the knot range put every
			// r-th point exactly on a uniform grid's knots.
			for _, r := range []int{1, 4, 8, 12} {
				if (nk-1)*r+1 <= 1<<15 {
					sizes = append(sizes, (nk-1)*r+1)
				}
			}
			for _, zero := range []bool{false, true} {
				sp.SetExtrapolateZero(zero)
				for _, span := range spans {
					for _, n := range sizes {
						got := sp.ResampleInto(make([]float64, n), span[0], span[1])
						want := resampleIntoRef(sp, make([]float64, n), span[0], span[1])
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("knots=%d uniform=%v zero=%v span=%v n=%d: resample diverges at %d: %g != %g",
								nk, uniform, zero, span, n, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

var benchSink []float64

// BenchmarkConvolveDirect times the direct convolution on the shapes of
// the makespan evaluation's Add: a long work grid against a narrow
// operand in both orientations, and the short rows of the fast preset.
func BenchmarkConvolveDirect(b *testing.B) {
	for _, sh := range [][2]int{{8192, 64}, {2000, 64}, {64, 8192}, {256, 4}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(14))
			x := splineValues(rng, sh[0], true)
			k := splineValues(rng, sh[1], true)
			out := make([]float64, sh[0]+sh[1]-1)
			var ws ConvScratch
			for b.Loop() {
				benchSink = convolveDirectInto(out, x, k, &ws)
			}
		})
	}
}

// BenchmarkSplineFitResample times one fit plus resample on the two
// shapes of the Add kernel: the convolution output (8255 knots) sampled
// onto the 64-point result grid, and a 64-point operand upsampled onto
// an 8192-point work grid.
func BenchmarkSplineFitResample(b *testing.B) {
	for _, sh := range [][2]int{{8255, 64}, {64, 8192}} {
		b.Run(fmt.Sprintf("%dknots-%dpts", sh[0], sh[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			x := LinspaceInto(make([]float64, sh[0]), 3, 1500)
			y := splineValues(rng, sh[0], true)
			out := make([]float64, sh[1])
			var ws SplineScratch
			var sp Spline
			for b.Loop() {
				if err := sp.Fit(x, y, &ws); err != nil {
					b.Fatal(err)
				}
				sp.SetExtrapolateZero(true)
				benchSink = sp.ResampleInto(out, 3, 1500)
			}
		})
	}
}
