//go:build !amd64

package numeric

// useAVX2 is false off amd64: only the portable Go loops run.
const useAVX2 = false

func segmentRowAVX2(out []float64, k0, lo, step, x0, x1, y0, y1, m0, m1 float64) {
	panic("numeric: AVX2 kernel called off amd64")
}

func convGather16AVX2(out []float64, a []float64, bw []float64) bool {
	panic("numeric: AVX2 kernel called off amd64")
}

func thomas4AVX2(x, y, m, b, c, d []float64, stop int) {
	panic("numeric: AVX2 kernel called off amd64")
}
