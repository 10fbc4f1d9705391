package numeric

// ConvolveDirect computes the full linear convolution of a and b by the
// naive O(len(a)·len(b)) algorithm. The result has length
// len(a)+len(b)-1. It is exact up to floating-point rounding and is the
// reference implementation for the FFT-based variants.
func ConvolveDirect(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return convolveDirectInto(make([]float64, len(a)+len(b)-1), a, b, &ConvScratch{})
}

// convolveDirectInto writes the full convolution into out, which must
// have length len(a)+len(b)-1 (its prior contents are overwritten).
func convolveDirectInto(out, a, b []float64, ws *ConvScratch) []float64 {
	return convolveWindowInto(out, 0, a, b, ws.gatherKernel(b), &ws.tmp)
}

// convolveWindowInto writes into out the direct-convolution values at
// indices k0, ..., k0+len(out)-1. Every value is the sum of a[i]*b[k-i]
// over the nonzero a[i] in order of increasing i, so it has the same
// bits whichever window it is computed in. With bz, b padded by
// padKernel, the AVX2 gather kernel computes it; without, or when a
// holds an infinite or NaN value, the row scatter does. Both give the
// same bits.
func convolveWindowInto(out []float64, k0 int, a, b, bz []float64, tmp *[16]float64) []float64 {
	if bz != nil && convolveGatherInto(out, k0, a, bz, tmp) {
		return out
	}
	return scatterWindowInto(out, k0, a, b)
}

// scatterWindowInto is convolveWindowInto by rows: each nonzero a[i]
// adds the row a[i]*b, clipped to the window, in order of increasing i.
// It is the portable path, and the AVX2 one for operands the gather
// kernel refuses.
func scatterWindowInto(out []float64, k0 int, a, b []float64) []float64 {
	for i := range out {
		out[i] = 0
	}
	k1 := k0 + len(out)
	for i := max(0, k0-len(b)+1); i < min(len(a), k1); i++ {
		av := a[i]
		if av == 0 { //reprovet:allow floateq sparse skip of exactly-zero mass bins; near-zero bins must still convolve
			continue
		}
		jlo, jhi := max(0, k0-i), min(len(b), k1-i)
		row := out[i+jlo-k0 : i+jhi-k0]
		for j, bv := range b[jlo:jhi] {
			row[j] += av * bv
		}
	}
	return out
}

// gatherPad is the number of zeros on each side of the kernel copy that
// convolveGatherInto reads: a group of sixteen outputs reaches fifteen
// places past either end of the kernel.
const gatherPad = 15

// padKernel returns b between gatherPad zeros, in dst's storage, or nil
// when b holds an infinite or NaN value.
func padKernel(dst *[]float64, b []float64) []float64 {
	bz := growFloats(dst, len(b)+2*gatherPad)
	clear(bz[:gatherPad])
	finite := true
	for i, v := range b {
		bz[gatherPad+i] = v
		finite = finite && v-v == 0 //reprovet:allow floateq v-v is exactly 0 for every finite v and NaN otherwise
	}
	clear(bz[gatherPad+len(b):])
	if !finite {
		return nil
	}
	return bz
}

// convolveGatherInto is convolveWindowInto on the AVX2 gather kernel:
// sixteen outputs at a time, each summed in a register over increasing
// i, so no output is stored and reloaded per row. bz is b padded by
// padKernel, so finite. The kernel adds every term, a zero a[i] and the
// padding included: such a term is ±0, and adding ±0 leaves a sum that
// started at +0 as it is, bit for bit. So each output is bit-identical
// to the row scatter's, which skips zero a[i], provided a is finite too:
// with an infinite or NaN a[i] a padding term would be NaN, so the
// kernel refuses it, and convolveGatherInto reports false with out
// partly written.
func convolveGatherInto(out []float64, k0 int, a, bz []float64, tmp *[16]float64) bool {
	lb := len(bz) - 2*gatherPad
	for k := k0; k < k0+len(out); k += 16 {
		i0, i1 := max(0, k-lb+1), min(len(a)-1, k+15)
		if !convGather16AVX2(tmp[:], a[i0:i1+1], bz[gatherPad+k-i1:gatherPad+k-i0+16]) {
			return false
		}
		copy(out[k-k0:], tmp[:])
	}
	return true
}

// ConvScratch holds the FFT work arrays of the convolution routines and
// the padded kernel of the direct gather, so hot loops can convolve
// without allocating. The zero value is ready to use.
type ConvScratch struct {
	are, aim, bre, bim []float64
	bz                 []float64   // the kernel between gatherPad zeros
	tmp                [16]float64 // one gather group's outputs
}

// gatherKernel returns b padded for the AVX2 gather kernel, in ws's
// storage, or nil where the CPU lacks AVX2 or b is not finite.
func (ws *ConvScratch) gatherKernel(b []float64) []float64 {
	if !useAVX2 {
		return nil
	}
	return padKernel(&ws.bz, b)
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
// path. The cutoff stays where it is, even though the AVX2 kernels make
// direct cheaper, because it decides which algorithm, and so which bits,
// each shape gets: moving it changes results and would need a cache-key
// version bump. How a direct value is computed does not: the row
// scatter, the register-blocked gather and the windowed evaluation of
// ConvolveResampleInto, which computes only the outputs near its
// samples, all read the same bits per output, so each gives every
// output the bits of the full direct sum.
const directKernelMax = 96

// directShape reports whether ConvolveInto convolves an la×lb shape
// directly.
func directShape(la, lb int) bool {
	return la <= directKernelMax || lb <= directKernelMax || la*lb <= 4096
}

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
	case directShape(la, lb):
		return convolveDirectInto(out, a, b, ws)
	case la >= 8*lb || lb >= 8*la:
		return convolveOverlapAddInto(out, a, b, 0, ws)
	default:
		return convolveFFTInto(out, a, b, ws)
	}
}
