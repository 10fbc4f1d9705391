package numeric

// useAVX2 reports whether the CPU and the OS support AVX2, probed once at
// start-up. Without it the portable Go loops run.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// convRowAVX2 adds a*b[j] to row[j] for every j; len(row) == len(b).
//
//go:noescape
func convRowAVX2(row []float64, a float64, b []float64)

// segmentRowAVX2 stores into out[j] the cubic of the spline segment
// [x0, x1] at t = lo + (k0+j)*step, bit-identical to Spline.segmentAt;
// len(out) is a multiple of 4.
//
//go:noescape
func segmentRowAVX2(out []float64, k0, lo, step, x0, x1, y0, y1, m0, m1 float64)
