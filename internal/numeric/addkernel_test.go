package numeric

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// convolveResampleGlobal is the oracle of ConvolveResampleInto: the full
// convolution, one natural spline fitted over all of it, and the
// resample onto the output grid, as the Add kernel computed them before
// the fit was windowed.
func convolveResampleGlobal(out, a, b []float64, h, lo, hi float64) ([]float64, error) {
	conv := Convolve(a, b)
	for i := range conv {
		conv[i] *= h
		if conv[i] < 0 {
			conv[i] = 0
		}
	}
	xs := Linspace(lo, lo+float64(len(conv)-1)*h, len(conv))
	sp, err := NewSpline(xs, conv)
	if err != nil {
		return out, err
	}
	sp.SetExtrapolateZero(true)
	return sp.ResampleInto(out, lo, hi), nil
}

// addOperands draws the two work-grid operands of an Add with
// la+lb-1 == L: density-like bumps, with the narrow one on either side.
func addOperands(rng *rand.Rand, L int) (a, b []float64) {
	lb := 2 + rng.Intn(min(L-1, 80))
	la := L + 1 - lb
	a, b = splineValues(rng, la, true), splineValues(rng, lb, true)
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return a, b
}

// (a) When the windows of the 64 samples merge into one block over
// every knot, the kernel is the global fit, bit for bit. The windows
// always merge when the samples are at most 65 knot steps apart,
// L−1 ≤ 65·(n−1), which is 4096 knots at 64 samples, and often a little
// beyond.
func TestConvolveResampleOneBlockMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ws AddScratch
	oneBlock := 0
	for trial := 0; trial < 400; trial++ {
		L := 2 + rng.Intn(4199)
		if trial < 3 {
			L = []int{2, 3, 4200}[trial]
		}
		a, b := addOperands(rng, L)
		lo := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)))
		h := math.Pow(10, rng.Float64()*4-3)
		hi := lo + float64(L-1)*h + (rng.Float64()-0.5)*h
		n := 64
		if trial%10 == 0 {
			n = 2 + rng.Intn(300)
		}
		if ws.plan(n, L, lo, hi, lo+float64(L-1)*h) {
			if L-1 <= 65*(n-1) {
				t.Fatalf("L=%d n=%d: windows did not merge into one block", L, n)
			}
			continue
		}
		oneBlock++
		got, err := ConvolveResampleInto(make([]float64, n), a, b, h, lo, hi, &ws)
		want, werr := convolveResampleGlobal(make([]float64, n), a, b, h, lo, hi)
		if (err != nil) != (werr != nil) {
			t.Fatalf("L=%d: error %v, global fit %v", L, err, werr)
		}
		if i := sameBits(got, want); err == nil && i >= 0 {
			t.Fatalf("L=%d (%d×%d) n=%d lo=%g h=%g: sample %d is %x, global fit %x",
				L, len(a), len(b), n, lo, h, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	if oneBlock < 300 {
		t.Fatalf("only %d of 400 shapes ran as one block", oneBlock)
	}
}

// Degenerate grids take the global fit too, errors included: knots
// that round together, a collapsed output range, one sample, and
// non-finite bounds.
func TestConvolveResampleDegenerateMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a, b := addOperands(rng, 8193)
	var ws AddScratch
	for _, c := range []struct {
		n         int
		h, lo, hi float64
	}{
		{64, 1e-13, 1e6, 1e6 + 8192e-13},
		{64, 0.1, 5, 5},
		{64, 0.1, 5, 4},
		{1, 0.1, 5, 800},
		{64, math.NaN(), 5, 800},
		{64, 0.1, math.Inf(-1), 800},
	} {
		got, err := ConvolveResampleInto(make([]float64, c.n), a, b, c.h, c.lo, c.hi, &ws)
		want, werr := convolveResampleGlobal(make([]float64, c.n), a, b, c.h, c.lo, c.hi)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%+v: error %v, global fit %v", c, err, werr)
		}
		if i := sameBits(got, want); err == nil && i >= 0 {
			t.Fatalf("%+v: sample %d is %g, global fit %g", c, i, got[i], want[i])
		}
	}
}

// checkWindows computes random windows of a∗b with the row scatter and,
// where it runs, the gather kernel, and holds every value to the full
// scalar convolution at the same index.
func checkWindows(t *testing.T, rng *rand.Rand, a, b []float64, windows int) {
	t.Helper()
	L := len(a) + len(b) - 1
	want := convolveDirectIntoRef(make([]float64, L), a, b)
	var bz []float64
	var tmp [16]float64
	if useAVX2 {
		bz = padKernel(&bz, b) // nil when b is not finite
	}
	for w := 0; w < windows; w++ {
		k0 := rng.Intn(L)
		k1 := k0 + 1 + rng.Intn(L-k0)
		if w == 0 {
			k0, k1 = 0, L
		}
		got := scatterWindowInto(make([]float64, k1-k0), k0, a, b)
		if i := sameBits(got, want[k0:k1]); i >= 0 {
			t.Fatalf("%d×%d window [%d,%d): scatter value %d is %x, full convolution %x",
				len(a), len(b), k0, k1, k0+i, math.Float64bits(got[i]), math.Float64bits(want[k0+i]))
		}
		if bz == nil {
			continue
		}
		// The gather reads a over its groups of sixteen outputs, which
		// may reach past the window, and refuses a non-finite value.
		finite := true
		for _, v := range a[max(0, k0-len(b)+1):min(len(a), k0+(k1-k0+15)/16*16)] {
			finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
		}
		got = make([]float64, k1-k0)
		if ok := convolveGatherInto(got, k0, a, bz, &tmp); ok != finite {
			t.Fatalf("%d×%d window [%d,%d): gather ran %v on an operand with finite=%v", len(a), len(b), k0, k1, ok, finite)
		} else if !ok {
			continue
		}
		if i := sameBits(got, want[k0:k1]); i >= 0 {
			t.Fatalf("%d×%d window [%d,%d): gather value %d is %x, full convolution %x",
				len(a), len(b), k0, k1, k0+i, math.Float64bits(got[i]), math.Float64bits(want[k0+i]))
		}
	}
}

// (b) A convolution value computed in a window, by the clipped row
// scatter or the gather kernel, has the bits the full direct
// convolution gives it: random shapes in both orientations, with ±0,
// subnormals, negatives, ±Inf and NaN, and runs of exact zeros that
// take the skip.
func TestConvolveWindowMatchesDirect(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := rand.New(rand.NewSource(23))
	shapes := [][2]int{{8130, 64}, {64, 8130}, {1, 1}, {1, 40}, {40, 1}, {15, 16}, {16, 15}, {17, 33}}
	for len(shapes) < 300 {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(300)})
	}
	for _, sh := range shapes {
		a := convOperand(rng, sh[0], false)
		b := convOperand(rng, sh[1], false)
		checkWindows(t, rng, a, b, 6)
		checkWindows(t, rng, b, a, 6)
		checkWindows(t, rng, a, convOperand(rng, sh[1], true), 6)
		checkWindows(t, rng, convOperand(rng, sh[0], true), b, 6)
	}
}

// FuzzWindowedConv feeds arbitrary float64 bit patterns, NaN payloads
// and signaling NaNs included, through the windowed convolutions and
// the scalar loop, on windows the fuzzer picks. The seed corpus runs
// under plain go test.
func FuzzWindowedConv(f *testing.F) {
	bits := func(vs ...float64) []byte {
		buf := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		return buf
	}
	f.Add(bits(1, 2, 3), uint16(1), int64(1))
	f.Add(bits(0.5, 0, -0.25, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17), uint16(4), int64(2))
	f.Add(bits(1e-310, 0, 2, math.Inf(1), math.NaN(), 1, 2, 3, 4, 5, 6, 7, math.Inf(-1), 8, 9), uint16(3), int64(3))
	f.Add(bits(math.Inf(1), -1, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, math.Inf(-1), math.NaN()), uint16(2), int64(4))
	f.Add(append(bits(2, math.Inf(1)), 1, 0, 0, 0, 0, 0, 0xf0, 0x7f, 7, 0, 0, 0, 0, 0, 0xf8, 0xff,
		1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24), uint16(1), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, seed int64) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vs) < 2 {
			return
		}
		k := 1 + int(split)%(len(vs)-1)
		rng := rand.New(rand.NewSource(seed))
		checkWindows(t, rng, vs[:k], vs[k:], 4)
		checkWindows(t, rng, vs[k:], vs[:k], 4)
	})
}

// The four-lane AVX2 solve is four lone solves, bit for bit, down to
// the row where its back-substitution stops.
func TestThomas4MatchesSolveNatural(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: blocks are solved one at a time")
	}
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{3, 4, 5, 66, 67, 200} {
		for _, stop := range []int{0, 1, n / 2, n - 2, n - 1} {
			var x, y [4][]float64
			x4, y4 := make([]float64, 4*n), make([]float64, 4*n)
			for l := range 4 {
				lo := rng.NormFloat64() * 100
				x[l] = splineKnots(rng, n, lo, lo+1+rng.Float64()*500, l%2 == 0)
				y[l] = splineValues(rng, n, l < 2)
				for i := range n {
					x4[4*i+l], y4[4*i+l] = x[l][i], y[l][i]
				}
			}
			m4 := make([]float64, 4*n)
			thomas4AVX2(x4, y4, m4, make([]float64, 4*n), make([]float64, 4*n), make([]float64, 4*n), stop)
			for l := range 4 {
				want := thomasRef(x[l], y[l])
				for i := stop; i < n; i++ {
					if got := m4[4*i+l]; math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d stop=%d lane %d: m[%d] is %g, lone solve %g", n, stop, l, i, got, want[i])
					}
				}
			}
		}
	}
}

// addShape is an Add captured from a cholesky or fft n≈1000 evaluation
// at the reference accuracy: the two 64-point operand densities and the
// work-grid step, which gives an 8193-knot convolution.
type addShape struct {
	Family string
	ALo    float64 `json:"a_lo"`
	AHi    float64 `json:"a_hi"`
	A      []float64
	BLo    float64 `json:"b_lo"`
	BHi    float64 `json:"b_hi"`
	B      []float64
	H      float64
}

// upsampleOperand resamples a 64-point density onto step h over its
// support, as the Add kernel does before convolving.
func upsampleOperand(t *testing.T, lo, hi float64, pdf []float64, h float64) []float64 {
	t.Helper()
	sp, err := NewSpline(Linspace(lo, hi, len(pdf)), pdf)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetExtrapolateZero(true)
	out := sp.Resample(lo, hi, max(int(math.Round((hi-lo)/h))+1, 2))
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		}
	}
	return out
}

// (c) On real 8193-knot Adds, where every sample runs in its own
// window, the windowed samples stay within 1e-18 of the density's peak
// of the global fit, in both operand orders.
func TestConvolveResampleWindowedNearGlobal(t *testing.T) {
	raw, err := os.ReadFile("testdata/add8193.json")
	if err != nil {
		t.Fatal(err)
	}
	var shapes []addShape
	if err := json.Unmarshal(raw, &shapes); err != nil {
		t.Fatal(err)
	}
	var ws AddScratch
	for si, s := range shapes {
		pa := upsampleOperand(t, s.ALo, s.AHi, s.A, s.H)
		pb := upsampleOperand(t, s.BLo, s.BHi, s.B, s.H)
		lo, hi := s.ALo+s.BLo, s.AHi+s.BHi
		if L := len(pa) + len(pb) - 1; L != 8193 {
			t.Fatalf("shape %d: %d knots, want 8193", si, L)
		}
		for _, ops := range [][2][]float64{{pa, pb}, {pb, pa}} {
			got, err := ConvolveResampleInto(make([]float64, 64), ops[0], ops[1], s.H, lo, hi, &ws)
			if err != nil {
				t.Fatal(err)
			}
			if len(ws.blocks) < 32 {
				t.Fatalf("shape %d: %d blocks, want one window per sample", si, len(ws.blocks))
			}
			want, err := convolveResampleGlobal(make([]float64, 64), ops[0], ops[1], s.H, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			peak, worst, same := 0.0, 0.0, 0
			for i := range want {
				peak = math.Max(peak, math.Abs(want[i]))
				worst = math.Max(worst, math.Abs(got[i]-want[i]))
				if math.Float64bits(got[i]) == math.Float64bits(want[i]) {
					same++
				}
			}
			if !(worst <= 1e-18*peak) {
				t.Errorf("%s shape %d (%d×%d): windowed samples differ from the global fit by %.3g of the peak",
					s.Family, si, len(ops[0]), len(ops[1]), worst/peak)
			}
			t.Logf("%s shape %d (%d×%d): %d/64 samples bit-identical, worst difference %.3g of the peak",
				s.Family, si, len(ops[0]), len(ops[1]), same, worst/peak)
		}
	}
}
