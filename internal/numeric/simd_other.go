//go:build !amd64

package numeric

// useAVX2 is false off amd64: only the portable Go loops run.
const useAVX2 = false

func convRowAVX2(row []float64, a float64, b []float64) {
	panic("numeric: AVX2 kernel called off amd64")
}

func segmentRowAVX2(out []float64, k0, lo, step, x0, x1, y0, y1, m0, m1 float64) {
	panic("numeric: AVX2 kernel called off amd64")
}
