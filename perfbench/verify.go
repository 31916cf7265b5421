package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"codeletfft"
)

// tol is the largest relative error a checked output may show.
const tol = 1e-9

// twiddles gives exp(-2πi·m/n) for m in [0, n) as the product of two
// directly evaluated factors, exp(-2πi·(m/b)·b/n)·exp(-2πi·(m%b)/n) with
// b ≈ √n, so a reference costs O(√n) memory and stays within a few ulps.
type twiddles struct {
	n, b   int
	hi, lo []complex128
}

func newTwiddles(n int) twiddles {
	b := int(math.Sqrt(float64(n))) + 1
	t := twiddles{n: n, b: b, hi: make([]complex128, n/b+1), lo: make([]complex128, b)}
	for i := range t.hi {
		t.hi[i] = cis(float64(i*b) / float64(n))
	}
	for i := range t.lo {
		t.lo[i] = cis(float64(i) / float64(n))
	}
	return t
}

// cis returns exp(-2πi·f).
func cis(f float64) complex128 {
	s, c := math.Sincos(-2 * math.Pi * f)
	return complex(c, s)
}

func (t twiddles) at(m int) complex128 { return t.hi[m/t.b] * t.lo[m%t.b] }

// kahan is a Neumaier-compensated float64 sum.
type kahan struct{ s, c float64 }

func (k *kahan) add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

func (k *kahan) sum() float64 { return k.s + k.c }

// dftBin evaluates bin k of the unnormalized DFT of x by direct
// compensated summation: forward uses exp(-2πi·jk/n), inverse its
// conjugate. O(n) per bin.
func dftBin(x []complex128, k int, tw twiddles, inverse bool) complex128 {
	n := len(x)
	k %= n
	var re, im kahan
	idx := 0
	for _, v := range x {
		w := tw.at(idx)
		if inverse {
			w = complex(real(w), -imag(w))
		}
		p := v * w
		re.add(real(p))
		im.add(imag(p))
		idx += k
		if idx >= n {
			idx -= n
		}
	}
	return complex(re.sum(), im.sum())
}

// energy returns Σ|v|² with compensation.
func energy(v []complex128) float64 {
	var e kahan
	for _, x := range v {
		e.add(real(x)*real(x) + imag(x)*imag(x))
	}
	return e.sum()
}

func csum(v []complex128) complex128 {
	var re, im kahan
	for _, x := range v {
		re.add(real(x))
		im.add(imag(x))
	}
	return complex(re.sum(), im.sum())
}

// check is a precomputed reference for one transform output. It pins a
// few seeded bins to their directly summed values and two whole-output
// invariants: the energy (Parseval) and the sum of all outputs, which a
// DFT fixes to one input element. Every error is relative to the RMS
// magnitude of the exact output. A single corrupted bin moves the sum by
// its full error, so corruption anywhere is caught.
type check struct {
	n      int
	bins   []int
	want   []complex128
	rms    float64
	energy float64
	sum    complex128
	hasSum bool
	half   bool // output is bins 0..n/2 of a real input's spectrum
}

// fftCheck builds the reference for the forward (or 1/n-normalized
// inverse) transform of x, pinning nbins seeded bins (bin 0 always).
func fftCheck(x []complex128, tw twiddles, nbins int, rng *rand.Rand, inverse bool) *check {
	n := len(x)
	c := &check{n: n, hasSum: true}
	e := energy(x)
	if inverse {
		c.energy, c.sum = e/float64(n), x[0]
	} else {
		c.energy, c.sum = e*float64(n), x[0]*complex(float64(n), 0)
	}
	c.rms = math.Sqrt(c.energy / float64(n))
	c.bins = seededBins(n, nbins, rng)
	for _, k := range c.bins {
		v := dftBin(x, k, tw, inverse)
		if inverse {
			v /= complex(float64(n), 0)
		}
		c.want = append(c.want, v)
	}
	return c
}

// realCheck builds the reference for the half spectrum (bins 0..n/2) of
// the real signal x, n even.
func realCheck(x []float64, tw twiddles, nbins int, rng *rand.Rand) *check {
	n := len(x)
	z := make([]complex128, n)
	var e kahan
	for i, v := range x {
		z[i] = complex(v, 0)
		e.add(v * v)
	}
	c := &check{n: n, half: true, energy: e.sum() * float64(n)}
	c.rms = math.Sqrt(c.energy / float64(n))
	c.bins = seededBins(n/2+1, nbins, rng)
	for _, k := range c.bins {
		c.want = append(c.want, dftBin(z, k, tw, false))
	}
	return c
}

// seededBins picks nbins distinct bin indices in [0, m), always bin 0.
func seededBins(m, nbins int, rng *rand.Rand) []int {
	seen := map[int]bool{0: true}
	bins := []int{0}
	for len(bins) < min(nbins, m) {
		k := rng.Intn(m)
		if !seen[k] {
			seen[k] = true
			bins = append(bins, k)
		}
	}
	return bins
}

// verify compares out against the reference and returns the first
// violation of tol.
func (c *check) verify(out []complex128) error {
	want := c.n
	if c.half {
		want = c.n/2 + 1
	}
	if len(out) != want {
		return fmt.Errorf("output has %d elements, want %d", len(out), want)
	}
	for i, k := range c.bins {
		if d := cmplx.Abs(out[k]-c.want[i]) / c.rms; !(d <= tol) {
			return fmt.Errorf("bin %d off by %.3g (relative)", k, d)
		}
	}
	var e float64
	if c.half {
		var acc kahan
		for k, v := range out {
			w := 2.0
			if k == 0 || 2*k == c.n {
				w = 1
			}
			acc.add(w * (real(v)*real(v) + imag(v)*imag(v)))
		}
		e = acc.sum()
	} else {
		e = energy(out)
	}
	if d := math.Abs(e-c.energy) / c.energy; !(d <= tol) {
		return fmt.Errorf("energy off by %.3g (relative)", d)
	}
	if c.hasSum {
		if d := cmplx.Abs(csum(out)-c.sum) / (math.Sqrt(float64(c.n)) * c.rms); !(d <= tol) {
			return fmt.Errorf("output sum off by %.3g (relative)", d)
		}
	}
	return nil
}

// randComplex returns n seeded values uniform in the unit square.
func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return x
}

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// selfCheck shows the verifier catches one corrupted bin, both a pinned
// one and one it does not pin, before any run trusts it.
func selfCheck() error {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, n)
	c := fftCheck(x, newTwiddles(n), 6, rng, false)
	// A pinned kernel keeps the tuner memo empty for the workload.
	p, err := codeletfft.NewHostPlan(n, codeletfft.WithKernel(codeletfft.KernelRadix2))
	if err != nil {
		return err
	}
	out := append([]complex128(nil), x...)
	if err := p.Transform(out); err != nil {
		return err
	}
	if err := c.verify(out); err != nil {
		return fmt.Errorf("correct output rejected: %w", err)
	}
	pinned := c.bins[1]
	unpinned := 1
	for slices.Contains(c.bins, unpinned) {
		unpinned++
	}
	for _, k := range []int{pinned, unpinned} {
		bad := append([]complex128(nil), out...)
		bad[k] += complex(1e-6*c.rms, 0)
		if c.verify(bad) == nil {
			return fmt.Errorf("corrupted bin %d was not caught", k)
		}
	}
	return nil
}
