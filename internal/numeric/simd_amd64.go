package numeric

// useAVX2 reports whether the CPU and the OS support AVX2, probed once at
// start-up. Without it the portable Go loops run.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// segmentRowAVX2 stores into out[j] the cubic of the spline segment
// [x0, x1] at t = lo + (k0+j)*step, bit-identical to Spline.segmentAt;
// len(out) is a multiple of 4.
//
//go:noescape
func segmentRowAVX2(out []float64, k0, lo, step, x0, x1, y0, y1, m0, m1 float64)

// convGather16AVX2 sets out[g], g < 16, to the sum over j of
// bw[len(a)-1-j+g]*a[j] in increasing j, with the per-term arithmetic of
// the scalar loop; len(bw) == len(a)+15 and bw is finite. It returns
// false if some a[j] is ±Inf or NaN.
//
//go:noescape
func convGather16AVX2(out []float64, a []float64, bw []float64) bool

// thomas4AVX2 runs solveNatural on four n-knot systems at once, lane l
// of row i at index 4i+l of every slice, bit-identical per lane; m is
// written for rows stop .. n-1 only.
//
//go:noescape
func thomas4AVX2(x, y, m, b, c, d []float64, stop int)
