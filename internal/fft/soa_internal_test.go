package fft

import (
	"math"
	"testing"
)

// Internal tests for the SoA codelets: the asm primitives must agree
// with their generic twins on every (dist, cnt, nblk) shape the sweep
// and stage-0 drivers can produce. Asm uses fused multiply-adds where
// the generic loops round intermediates, so agreement is to a few ulps,
// not bitwise — the documented asm↔generic contract.

func soaFillRand(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed*2862933555777941757 + 3037000493
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int32(s>>32)) / float64(1<<31)
	}
	return x
}

func soaMaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSoABfly2AsmMatchesGeneric(t *testing.T) {
	if !soaHasAsm {
		t.Skipf("no asm codelets in this build (accel=%s)", soaAccel)
	}
	shapes := []struct{ dist, cnt, nblk int }{
		{4, 4, 1}, {4, 4, 7}, {8, 8, 3}, {16, 16, 2},
		{16, 4, 1}, {16, 8, 1}, {64, 64, 2}, {64, 12, 1},
	}
	for _, sh := range shapes {
		span := (sh.nblk-1)*2*sh.dist + sh.dist + sh.cnt
		re := soaFillRand(span, 1)
		im := soaFillRand(span, 2)
		wr := soaFillRand(sh.dist, 3)
		wi := soaFillRand(sh.dist, 4)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		bfly2Asm(&re[0], &im[0], &wr[0], &wi[0], sh.dist, sh.cnt, sh.nblk)
		bfly2Gen(gre, gim, wr, wi, sh.dist, sh.cnt, sh.nblk)
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("bfly2 %+v: asm/generic diff %g", sh, d)
		}
	}
}

func TestSoABfly4AsmMatchesGeneric(t *testing.T) {
	if !soaHasAsm {
		t.Skipf("no asm codelets in this build (accel=%s)", soaAccel)
	}
	shapes := []struct{ dist, cnt, nblk int }{
		{4, 4, 1}, {4, 4, 5}, {8, 8, 3}, {16, 16, 2},
		{16, 4, 1}, {32, 8, 1}, {64, 64, 1},
	}
	for _, sh := range shapes {
		span := (sh.nblk-1)*4*sh.dist + 3*sh.dist + sh.cnt
		re := soaFillRand(span, 5)
		im := soaFillRand(span, 6)
		war := soaFillRand(sh.dist, 7)
		wai := soaFillRand(sh.dist, 8)
		wbr := soaFillRand(sh.dist, 9)
		wbi := soaFillRand(sh.dist, 10)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		bfly4Asm(&re[0], &im[0], &war[0], &wai[0], &wbr[0], &wbi[0], sh.dist, sh.cnt, sh.nblk)
		bfly4Gen(gre, gim, war, wai, wbr, wbi, sh.dist, sh.cnt, sh.nblk)
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("bfly4 %+v: asm/generic diff %g", sh, d)
		}
	}
}

func TestSoABase4AsmMatchesGeneric(t *testing.T) {
	if !soaHasBase4 {
		t.Skipf("no base4 codelet in this build (accel=%s)", soaAccel)
	}
	for _, n := range []int{16, 32, 128} {
		re := soaFillRand(n, 11)
		im := soaFillRand(n, 12)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		tw := [4]float64{0.6, -0.8, 0.28, 0.96}
		base4Asm(&re[0], &im[0], n, &tw[0])
		base4Gen(gre, gim, tw[0], tw[1], tw[2], tw[3])
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("base4 n=%d: asm/generic diff %g", n, d)
		}
	}
}

// TestSoAPassPartitionInvariance pins the determinism contract the host
// engine relies on: running the pack's or a pass's units in one span or
// split at any unit boundary must produce bitwise-identical planes —
// the pack because it is a pure permutation, the passes because the
// asm-or-generic choice depends only on the pass shape.
func TestSoAPassPartitionInvariance(t *testing.T) {
	// N is chosen so late levels have half > soaQuantum, exercising the
	// partial j-range (cnt < dist) path as well as full-block batching.
	for _, kern := range []Kernel{KernelSoARadix2, KernelSoARadix4} {
		pl, err := NewPlan(1<<15, 64)
		if err != nil {
			t.Fatal(err)
		}
		w := Twiddles(pl.N)
		st := pl.SoATwiddles(w)
		data := make([]complex128, pl.N)
		rnd := soaFillRand(2*pl.N, 13)
		for i := range data {
			data[i] = complex(rnd[2*i], rnd[2*i+1])
		}
		whole := GetSoAFrame(pl.N)
		split := GetSoAFrame(pl.N)
		whole.PackBitrev(data, 0, SoAPackUnits(pl.LogN), pl.LogN)
		for u := 0; u < SoAPackUnits(pl.LogN); u++ {
			split.PackBitrev(data, u, u+1, pl.LogN)
		}
		for stage := 0; stage < pl.NumStages; stage++ {
			for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
				units := pl.SoAPassUnits(stage, pass, kern)
				pl.SoARunPass(stage, pass, 0, units, whole, st, kern)
				for u := 0; u < units; u++ {
					pl.SoARunPass(stage, pass, u, u+1, split, st, kern)
				}
			}
		}
		for i := 0; i < pl.N; i++ {
			if math.Float64bits(whole.Re[i]) != math.Float64bits(split.Re[i]) ||
				math.Float64bits(whole.Im[i]) != math.Float64bits(split.Im[i]) {
				t.Fatalf("%v: plane element %d differs between whole-pass and per-unit execution", kern, i)
			}
		}
		whole.Release()
		split.Release()
	}
}
