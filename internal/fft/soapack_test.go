package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the tiled (blocked bit-reversal) SoA pack. The pack is a
// pure permutation, so its contract is exact: for every length and
// every partition of its units it must write the same planes as the
// plain per-element scatter below, bit for bit.

// packBitrevRef is the scalar scatter reference: element i goes to
// plane position rev(i).
func packBitrevRef(f *SoAFrame, data []complex128, logN int) {
	for i, v := range data {
		r := BitReverse(int64(i), logN)
		f.Re[r], f.Im[r] = real(v), imag(v)
	}
}

// poisonFrame fills both planes with a NaN payload no packed value can
// carry, so a slot the pack misses shows up as a mismatch.
func poisonFrame(f *SoAFrame) {
	nan := math.Float64frombits(0x7ff8dead0000beef)
	for i := range f.Re {
		f.Re[i], f.Im[i] = nan, nan
	}
}

func requireSamePlanes(t *testing.T, got, want *SoAFrame, what string) {
	t.Helper()
	for i := range want.Re {
		if math.Float64bits(got.Re[i]) != math.Float64bits(want.Re[i]) ||
			math.Float64bits(got.Im[i]) != math.Float64bits(want.Im[i]) {
			t.Fatalf("%s: plane element %d = (%v,%v), want (%v,%v)",
				what, i, got.Re[i], got.Im[i], want.Re[i], want.Im[i])
		}
	}
}

// TestSoAPackMatchesScatter checks every logN in 0..22: the whole-range
// pack, a unit-at-a-time pack and random unit splits all reproduce the
// scatter reference exactly.
func TestSoAPackMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for logN := 0; logN <= 22; logN++ {
		n := 1 << logN
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(float64(i)+0.25, -float64(i)-0.5)
		}
		want := &SoAFrame{Re: make([]float64, n), Im: make([]float64, n)}
		packBitrevRef(want, data, logN)
		got := &SoAFrame{Re: make([]float64, n), Im: make([]float64, n)}
		units := SoAPackUnits(logN)

		poisonFrame(got)
		got.PackBitrev(data, 0, units, logN)
		requireSamePlanes(t, got, want, fmt.Sprintf("logN=%d whole", logN))

		poisonFrame(got)
		for u := 0; u < units; u++ {
			got.PackBitrev(data, u, u+1, logN)
		}
		requireSamePlanes(t, got, want, fmt.Sprintf("logN=%d per unit", logN))

		for trial := 0; trial < 3; trial++ {
			poisonFrame(got)
			for lo := 0; lo < units; {
				hi := min(units, lo+1+rng.Intn(units))
				got.PackBitrev(data, lo, hi, logN)
				lo = hi
			}
			requireSamePlanes(t, got, want, fmt.Sprintf("logN=%d random split %d", logN, trial))
		}
	}
}

// BenchmarkSoAPack times the tiled pack against the per-element
// scatter it replaced.
func BenchmarkSoAPack(b *testing.B) {
	for _, logN := range []int{8, 11, 12, 16, 20, 21} {
		n := 1 << logN
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(float64(i), 1)
		}
		f := &SoAFrame{Re: make([]float64, n), Im: make([]float64, n)}
		b.Run(fmt.Sprintf("tiled/N=2^%d", logN), func(b *testing.B) {
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				f.PackBitrev(data, 0, SoAPackUnits(logN), logN)
			}
		})
		b.Run(fmt.Sprintf("scatter/N=2^%d", logN), func(b *testing.B) {
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				packBitrevRef(f, data, logN)
			}
		})
	}
}
