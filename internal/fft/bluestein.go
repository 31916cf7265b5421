// Bluestein (chirp-z) planning: an arbitrary-N DFT as a circular
// convolution of power-of-two length, covering the lengths the
// mixed-radix planner cannot — anything with a prime factor outside
// {2, 3, 5, 7}. With the chirp c[t] = exp(-iπ·t²/N), the identity
// t·k = (t² + k² - (k-t)²)/2 rewrites the DFT as
//
//	X[k] = c[k] · Σ_t (x[t]·c[t]) · conj(c[k-t])
//
// — a linear convolution of the chirp-premultiplied input with the
// conjugate chirp, embedded in a circular convolution of length
// M = 2^⌈log2(2N-1)⌉ and executed with the existing staged
// power-of-two plan (so the kernel family, autotuner, and parallel
// engine all apply to the heavy lifting unchanged). The filter's
// spectrum is fixed per plan and precomputed once.
//
// Under the split-plane (SoA) kernels the convolution stays in two
// pooled SoAFrames, A and B, and touches memory in three passes
// between the two M-point stage sweeps:
//
//  1. ChirpPack: x·chirp and the zero tail go into A, bit-reversed;
//     the forward transform's stages then run on A.
//  2. MulPack: conj(A·BHat) goes into B, bit-reversed; the inverse
//     transform's stages then run on B.
//  3. ChirpUnpack: conj(B)/M · chirp is written to the caller's data.
//
// The interleaved composition (Conv forward, ×BHat, Conv inverse) pays
// nine sweeps for the same work: chirp, pack, unpack, ×BHat, conj,
// pack, unpack, scale, chirp. Both passes that pack use the tiled
// bit-reversal schedule of SoAFrame.PackBitrev. Every step does its
// complex128 arithmetic in the composition's order, so the result is
// bitwise identical to it.
package fft

import (
	"fmt"
	"math"
)

// BluesteinPlan computes N-point DFTs for any N ≥ 1 via the chirp-z
// embedding. It is immutable after construction and safe for concurrent
// use on distinct buffers.
type BluesteinPlan struct {
	N int // transform length
	M int // convolution length: the smallest power of two ≥ max(2N-1, 2)

	// Conv is the staged M-point plan executing the embedded
	// convolution and WConv its twiddle table; the host engine runs
	// them with the caller's kernel choice.
	Conv  *Plan
	WConv []complex128

	// Chirp[t] = exp(-iπ·t²/N) for t ∈ [0, N) — the pre- and
	// post-multiplier. The squared index is reduced mod 2N in integer
	// arithmetic before the angle is formed, so the chirp stays
	// accurate at large t.
	Chirp []complex128

	// BHat is the forward M-point FFT of the wrapped conjugate-chirp
	// filter b (b[t] = conj(Chirp[t]), mirrored into b[M-t]).
	BHat []complex128
}

// NewBluesteinPlan builds the chirp-z plan for n-point transforms. It
// errors, wrapping ErrUnsupportedLength, only for n < 1.
func NewBluesteinPlan(n int) (*BluesteinPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: bluestein plan needs n ≥ 1, got %d", ErrUnsupportedLength, n)
	}
	m := 2
	for m < 2*n-1 {
		m <<= 1
	}
	conv, err := NewPlan(m, min(64, m))
	if err != nil {
		return nil, err
	}
	w := Twiddles(m)

	chirp := make([]complex128, n)
	for t := 0; t < n; t++ {
		e := int64(t) * int64(t) % int64(2*n)
		ang := -math.Pi * float64(e) / float64(n)
		chirp[t] = complex(math.Cos(ang), math.Sin(ang))
	}

	b := make([]complex128, m)
	b[0] = 1 // conj(chirp[0])
	for t := 1; t < n; t++ {
		c := complex(real(chirp[t]), -imag(chirp[t]))
		b[t] = c
		b[m-t] = c
	}
	conv.Transform(b, w)

	return &BluesteinPlan{N: n, M: m, Conv: conv, WConv: w, Chirp: chirp, BHat: b}, nil
}

// String names the plan for logs and plan descriptions.
func (bp *BluesteinPlan) String() string {
	return fmt.Sprintf("bluestein[M=%d]", bp.M)
}

// Transform applies the forward DFT in place, allocating the M-element
// convolution buffer. Wrong-length data panics with an error wrapping
// ErrLengthMismatch.
func (bp *BluesteinPlan) Transform(data []complex128) {
	bp.TransformWith(data, make([]complex128, bp.M), NewScratch(bp.Conv))
}

// TransformWith is Transform with caller-supplied buffers: work must
// have length M (its prior contents are ignored) and sc must come from
// NewScratch(bp.Conv).
func (bp *BluesteinPlan) TransformWith(data, work []complex128, sc *Scratch) {
	if len(data) != bp.N {
		panic(LengthError("data", len(data), bp.N))
	}
	if len(work) != bp.M {
		panic(LengthError("work", len(work), bp.M))
	}
	for t := 0; t < bp.N; t++ {
		work[t] = data[t] * bp.Chirp[t]
	}
	for t := bp.N; t < bp.M; t++ {
		work[t] = 0
	}
	bp.Conv.TransformWith(work, bp.WConv, sc)
	for i := range work {
		work[i] *= bp.BHat[i]
	}
	bp.Conv.InverseTransformWith(work, bp.WConv, sc)
	for k := 0; k < bp.N; k++ {
		data[k] = work[k] * bp.Chirp[k]
	}
}

// InverseTransform applies the inverse DFT in place via the conjugation
// identity, allocating the convolution buffer.
func (bp *BluesteinPlan) InverseTransform(data []complex128) {
	bp.InverseTransformWith(data, make([]complex128, bp.M), NewScratch(bp.Conv))
}

// InverseTransformWith is InverseTransform with caller-supplied
// buffers.
func (bp *BluesteinPlan) InverseTransformWith(data, work []complex128, sc *Scratch) {
	for i, v := range data {
		data[i] = complex(real(v), -imag(v))
	}
	bp.TransformWith(data, work, sc)
	inv := 1 / float64(bp.N)
	for i, v := range data {
		data[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// ChirpPack fills pack units [lo,hi) of [0, SoAPackUnits(Conv.LogN))
// of f, an M-element frame, with the chirp-premultiplied input x[t]·Chirp[t] for t < N and zeros for the
// tail, at bit-reversed positions. With conj set, x is conjugated
// first (the inverse transform's conjugation identity).
func (bp *BluesteinPlan) ChirpPack(f *SoAFrame, data []complex128, conj bool, lo, hi int) {
	if len(data) != bp.N {
		panic(LengthError("data", len(data), bp.N))
	}
	f.pack(&packSource{data: data, chirp: bp.Chirp, conj: conj}, lo, hi, bp.Conv.LogN)
}

// MulPack fills pack units [lo,hi) of dst with conj(src[i]·BHat[i]) at
// bit-reversed positions: the filter multiply and the inverse
// transform's input conjugation, fused into its pack. src holds the
// forward transform in natural order.
func (bp *BluesteinPlan) MulPack(dst, src *SoAFrame, lo, hi int) {
	dst.pack(&packSource{re: src.Re, im: src.Im, bhat: bp.BHat}, lo, hi, bp.Conv.LogN)
}

// ChirpUnpack writes outputs [lo,hi) of [0, N): the inverse
// transform's conjugate-and-scale by 1/M applied to f, times the chirp.
// With inverse set, the result is conjugated and scaled by 1/N as the
// inverse DFT's conjugation identity requires.
func (bp *BluesteinPlan) ChirpUnpack(data []complex128, f *SoAFrame, inverse bool, lo, hi int) {
	inv := 1 / float64(bp.M)
	invN := 1 / float64(bp.N)
	re, im, chirp := f.Re[lo:hi], f.Im[lo:hi], bp.Chirp[lo:hi]
	out := data[lo:hi]
	for k := range out {
		v := complex(re[k]*inv, -im[k]*inv) * chirp[k]
		if inverse {
			v = complex(real(v)*invN, -imag(v)*invN)
		}
		out[k] = v
	}
}
