package numeric

// ConvolveDirect computes the full linear convolution of a and b by the
// naive O(len(a)·len(b)) algorithm. The result has length
// len(a)+len(b)-1. It is exact up to floating-point rounding and is the
// reference implementation for the FFT-based variants.
func ConvolveDirect(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return convolveDirectInto(make([]float64, len(a)+len(b)-1), a, b)
}

// simdRowMin is the shortest row, len(b), that convolveDirectInto hands
// to the AVX2 kernel. Shorter rows stay in the Go loop: on 2000-row
// shapes the kernel call costs more than its vector arithmetic saves
// below 8 points and wins from 8 on.
const simdRowMin = 8

// convolveDirectInto writes the full convolution into out, which must
// have length len(a)+len(b)-1 (its prior contents are overwritten).
// Each nonzero a[i] adds the row a[i]*b into out[i:i+len(b)], in order
// of increasing i; the AVX2 row kernel performs the same multiply and
// add per element as the Go loop, so both paths give the same bits.
func convolveDirectInto(out, a, b []float64) []float64 {
	for i := range out {
		out[i] = 0
	}
	simd := useAVX2 && len(b) >= simdRowMin
	for i, av := range a {
		if av == 0 { //reprovet:allow floateq sparse skip of exactly-zero mass bins; near-zero bins must still convolve
			continue
		}
		if simd {
			convRowAVX2(out[i:i+len(b)], av, b)
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// ConvScratch holds the FFT work arrays of the convolution routines so
// hot loops can convolve without allocating. The zero value is ready to
// use.
type ConvScratch struct {
	are, aim, bre, bim []float64
}

func (ws *ConvScratch) grow(n int) (are, aim, bre, bim []float64) {
	if cap(ws.are) < n {
		ws.are = make([]float64, n)
		ws.aim = make([]float64, n)
		ws.bre = make([]float64, n)
		ws.bim = make([]float64, n)
	}
	return ws.are[:n], ws.aim[:n], ws.bre[:n], ws.bim[:n]
}

// ConvolveFFT computes the full linear convolution of a and b using a
// single zero-padded FFT of size NextPow2(len(a)+len(b)-1).
func ConvolveFFT(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	return convolveFFTInto(make([]float64, outLen), a, b, &ConvScratch{})
}

// convolveFFTInto is ConvolveFFT writing into out (length
// len(a)+len(b)-1) using ws for the transforms. Bit-identical to
// ConvolveFFT.
func convolveFFTInto(out, a, b []float64, ws *ConvScratch) []float64 {
	outLen := len(a) + len(b) - 1
	n := NextPow2(outLen)
	are, aim, bre, bim := ws.grow(n)
	for i := range are {
		are[i], aim[i], bre[i], bim[i] = 0, 0, 0, 0
	}
	copy(are, a)
	copy(bre, b)
	// Errors are impossible here: lengths are equal powers of two.
	_ = FFT(are, aim, false)
	_ = FFT(bre, bim, false)
	for i := 0; i < n; i++ {
		re := are[i]*bre[i] - aim[i]*bim[i]
		im := are[i]*bim[i] + aim[i]*bre[i]
		are[i], aim[i] = re, im
	}
	_ = FFT(are, aim, true)
	copy(out, are[:outLen])
	return out
}

// ConvolveOverlapAdd computes the full linear convolution of signal with
// kernel using the overlap-add method: the signal is cut into blocks,
// each block is convolved with the kernel by FFT, and the partial results
// are summed with the proper offsets. This is the optimization the paper
// names for convolving long densities with short kernels.
//
// blockSize controls the signal block length; values <= 0 select a block
// size automatically (4x the kernel length, rounded to a power of two).
func ConvolveOverlapAdd(signal, kernel []float64, blockSize int) []float64 {
	if len(signal) == 0 || len(kernel) == 0 {
		return nil
	}
	out := make([]float64, len(signal)+len(kernel)-1)
	return convolveOverlapAddInto(out, signal, kernel, blockSize, &ConvScratch{})
}

// convolveOverlapAddInto is ConvolveOverlapAdd writing into out (length
// len(signal)+len(kernel)-1) using ws for the transforms. Bit-identical
// to ConvolveOverlapAdd.
func convolveOverlapAddInto(out, signal, kernel []float64, blockSize int, ws *ConvScratch) []float64 {
	if len(kernel) > len(signal) {
		signal, kernel = kernel, signal
	}
	if blockSize <= 0 {
		blockSize = NextPow2(4 * len(kernel))
	}
	if blockSize < len(kernel) {
		blockSize = NextPow2(len(kernel))
	}
	outLen := len(signal) + len(kernel) - 1
	for i := range out {
		out[i] = 0
	}
	fftLen := NextPow2(blockSize + len(kernel) - 1)

	// Pre-transform the kernel once.
	kre, kim, bre, bim := ws.grow(fftLen)
	for i := 0; i < fftLen; i++ {
		kre[i], kim[i] = 0, 0
	}
	copy(kre, kernel)
	_ = FFT(kre, kim, false)

	for start := 0; start < len(signal); start += blockSize {
		end := start + blockSize
		if end > len(signal) {
			end = len(signal)
		}
		for i := range bre {
			bre[i], bim[i] = 0, 0
		}
		copy(bre, signal[start:end])
		_ = FFT(bre, bim, false)
		for i := 0; i < fftLen; i++ {
			re := bre[i]*kre[i] - bim[i]*kim[i]
			im := bre[i]*kim[i] + bim[i]*kre[i]
			bre[i], bim[i] = re, im
		}
		_ = FFT(bre, bim, true)
		segLen := end - start + len(kernel) - 1
		for i := 0; i < segLen && start+i < outLen; i++ {
			out[start+i] += bre[i]
		}
	}
	return out
}

// directKernelMax is the largest "short side" that takes the direct
// algorithm. The makespan evaluation's hot shape — a work grid of
// thousands of points convolved with a narrow duration or communication
// kernel of a few dozen — sits far below it, and the direct sum is
// exact, so the cutoff also keeps FFT round-off off the narrow-kernel
// path. The cutoff stays where it is, even though the AVX2 row kernel
// makes direct cheaper, because it decides which algorithm, and so which
// bits, each shape gets: moving it changes results and would need a
// cache-key version bump.
const directKernelMax = 96

// Convolve picks a convolution strategy based on operand sizes: direct
// when either operand is short or the product is small (the direct sum
// is both faster and exact there), overlap-add when one operand is much
// shorter than the other, plain FFT otherwise.
func Convolve(a, b []float64) []float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return nil
	}
	return ConvolveInto(make([]float64, la+lb-1), a, b, &ConvScratch{})
}

// ConvolveInto is Convolve writing into out, which must have length
// len(a)+len(b)-1; ws carries the FFT scratch. The strategy choice and
// the arithmetic are identical to Convolve, so the results agree
// bit-for-bit.
func ConvolveInto(out, a, b []float64, ws *ConvScratch) []float64 {
	la, lb := len(a), len(b)
	switch {
	case la == 0 || lb == 0:
		return nil
	case la <= directKernelMax || lb <= directKernelMax || la*lb <= 4096:
		return convolveDirectInto(out, a, b)
	case la >= 8*lb || lb >= 8*la:
		return convolveOverlapAddInto(out, a, b, 0, ws)
	default:
		return convolveFFTInto(out, a, b, ws)
	}
}
