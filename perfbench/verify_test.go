package main

import (
	"math/rand"
	"testing"

	"codeletfft"
)

// TestSelfCheck is the run-time self-test: one corrupted bin, pinned or
// not, must be caught.
func TestSelfCheck(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestChecksAcceptCorrectOutputs runs each reference kind against the
// library on an awkward length and then corrupts one output.
func TestChecksAcceptCorrectOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 4099
	x := randComplex(rng, n)
	tw := newTwiddles(n)
	p, err := codeletfft.NewHostPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, inverse := range []bool{false, true} {
		c := fftCheck(x, tw, 6, rng, inverse)
		out := append([]complex128(nil), x...)
		if inverse {
			err = p.Inverse(out)
		} else {
			err = p.Transform(out)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.verify(out); err != nil {
			t.Fatalf("inverse=%v: correct output rejected: %v", inverse, err)
		}
		out[n-1] += complex(0, 1e-6*c.rms)
		if c.verify(out) == nil {
			t.Fatalf("inverse=%v: corrupted last bin accepted", inverse)
		}
	}

	const m = 1024
	r := randReal(rng, m)
	rc := realCheck(r, newTwiddles(m), 6, rng)
	rp, err := codeletfft.NewRealPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]complex128, m/2+1)
	if err := rp.Transform(spec, r); err != nil {
		t.Fatal(err)
	}
	if err := rc.verify(spec); err != nil {
		t.Fatalf("real spectrum rejected: %v", err)
	}

	h := randComplex(rng, 31)
	sig := randComplex(rng, 5000)
	cc := newConvCheck(sig, h, 8, rng)
	cp, err := codeletfft.NewConvPlan(len(sig), len(h))
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, cp.OutLen())
	if err := cp.Convolve(y, sig, h); err != nil {
		t.Fatal(err)
	}
	if err := cc.verify(y); err != nil {
		t.Fatalf("convolution rejected: %v", err)
	}
	y[2500] += 1e-6 * complex(cc.rms, 0)
	if cc.verify(y) == nil {
		t.Fatal("corrupted convolution output accepted")
	}
}
