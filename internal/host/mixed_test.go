// Determinism tests for the arbitrary-N engine paths: the parallel
// mixed-radix sweep and the Bluestein convolution must be bitwise
// identical to their serial counterparts at every worker count, and the
// batch entry points must match a plain loop element-for-element. The
// facade's reproducibility contract — same plan, same input, same bits,
// regardless of engine shape — extends to non-power-of-two lengths only
// because of the properties pinned here.
package host_test

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

func mixedSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func requireSameBits(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestMixedParallelMatchesSerial: the sharded per-stage sweep computes
// exactly the serial plan's bits at every worker count, because each
// butterfly unit reads and writes a disjoint element set with
// self-contained arithmetic.
func TestMixedParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 12, 360, 1000, 3000, 6144} {
		mp, err := fft.NewMixedPlan(n)
		if err != nil {
			t.Fatalf("NewMixedPlan(%d): %v", n, err)
		}
		x := mixedSignal(n, int64(n))
		serial := append([]complex128(nil), x...)
		mp.Transform(serial)
		serialInv := append([]complex128(nil), serial...)
		mp.InverseTransform(serialInv)

		for _, workers := range []int{2, 4, 7} {
			eng := host.New(host.Config{Workers: workers, Threshold: 1})
			par := append([]complex128(nil), x...)
			eng.MixedTransform(mp, par)
			requireSameBits(t, par, serial, "forward")
			eng.MixedInverse(mp, par)
			requireSameBits(t, par, serialInv, "inverse")
		}
	}
}

// TestMixedBatchMatchesLoop: the batched entry points are a scheduling
// construct only — every row must carry the same bits as a one-row
// call.
func TestMixedBatchMatchesLoop(t *testing.T) {
	const n, rows = 360, 9
	mp, err := fft.NewMixedPlan(n)
	if err != nil {
		t.Fatalf("NewMixedPlan(%d): %v", n, err)
	}
	want := make([][]complex128, rows)
	batch := make([][]complex128, rows)
	for r := range batch {
		x := mixedSignal(n, int64(100+r))
		want[r] = append([]complex128(nil), x...)
		mp.Transform(want[r])
		batch[r] = append([]complex128(nil), x...)
	}
	eng := host.New(host.Config{Workers: 4, Threshold: 1})
	eng.MixedTransformBatch(mp, batch)
	for r := range batch {
		requireSameBits(t, batch[r], want[r], "batch forward row")
	}
	for r := range batch {
		mp.InverseTransform(want[r])
	}
	eng.MixedInverseBatch(mp, batch)
	for r := range batch {
		requireSameBits(t, batch[r], want[r], "batch inverse row")
	}
}

// TestBluesteinEngineDeterministic: for a fixed kernel the Bluestein
// path is elementwise sweeps and partition-independent packs around
// the engine's power-of-two convolution, so a 4-worker engine must
// reproduce a 1-worker engine bit-for-bit — and both must still be a
// correct DFT. n = 4099 gives M = 16384, above the default threshold,
// so the default-threshold engine shards the convolution too; the SoA
// kernels run it plane-resident.
func TestBluesteinEngineDeterministic(t *testing.T) {
	kernels := []fft.Kernel{fft.KernelRadix2, fft.KernelRadix4, fft.KernelSoARadix2, fft.KernelSoARadix4}
	for _, n := range []int{11, 97, 499, 601, 4099} {
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
		}
		x := mixedSignal(n, int64(n))
		want := fft.DFT(x)
		for _, kern := range kernels {
			one := host.New(host.Config{Workers: 1, Threshold: 1})
			ref := append([]complex128(nil), x...)
			one.BluesteinTransform(bp, ref, kern)

			if e := fft.MaxError(ref, want); e > 1e-9*float64(n) {
				t.Fatalf("n=%d kern=%v: engine Bluestein vs DFT error %g", n, kern, e)
			}

			four := host.New(host.Config{Workers: 4, Threshold: 1})
			par := append([]complex128(nil), x...)
			four.BluesteinTransform(bp, par, kern)
			requireSameBits(t, par, ref, "bluestein forward")
			dflt := host.New(host.Config{Workers: 4})
			dpar := append([]complex128(nil), x...)
			dflt.BluesteinTransform(bp, dpar, kern)
			requireSameBits(t, dpar, ref, "bluestein forward, default threshold")

			one.BluesteinInverse(bp, ref, kern)
			four.BluesteinInverse(bp, par, kern)
			dflt.BluesteinInverse(bp, dpar, kern)
			requireSameBits(t, par, ref, "bluestein inverse")
			requireSameBits(t, dpar, ref, "bluestein inverse, default threshold")
			if e := fft.MaxError(par, x); e > 1e-9 {
				t.Fatalf("n=%d kern=%v: round-trip error %g", n, kern, e)
			}
		}
	}
}

// bluesteinComposed is the interleaved composition the plane-resident
// SoA convolution replaces: chirp, the engine's forward transform,
// ×BHat, the engine's inverse transform, chirp — with the conjugation
// identity around it for the inverse.
func bluesteinComposed(e *host.Engine, bp *fft.BluesteinPlan, x []complex128, kern fft.Kernel, inverse bool) []complex128 {
	data := append([]complex128(nil), x...)
	if inverse {
		for i, v := range data {
			data[i] = complex(real(v), -imag(v))
		}
	}
	work := make([]complex128, bp.M)
	for t := range data {
		work[t] = data[t] * bp.Chirp[t]
	}
	e.TransformKernel(bp.Conv, work, bp.WConv, kern)
	for i := range work {
		work[i] *= bp.BHat[i]
	}
	e.InverseTransformKernel(bp.Conv, work, bp.WConv, kern)
	for k := range data {
		data[k] = work[k] * bp.Chirp[k]
	}
	if inverse {
		inv := 1 / float64(bp.N)
		for i, v := range data {
			data[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
	return data
}

// TestBluesteinSoAMatchesComposition pins the fused three-pass
// convolution to the composition it replaces, bit for bit, forward and
// inverse, serial and sharded.
func TestBluesteinSoAMatchesComposition(t *testing.T) {
	for _, n := range []int{1, 11, 97, 601, 4099} {
		bp, err := fft.NewBluesteinPlan(n)
		if err != nil {
			t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
		}
		x := mixedSignal(n, int64(7*n))
		for _, kern := range []fft.Kernel{fft.KernelSoARadix2, fft.KernelSoARadix4} {
			for _, workers := range []int{1, 3} {
				e := host.New(host.Config{Workers: workers, Threshold: 1})
				got := append([]complex128(nil), x...)
				e.BluesteinTransform(bp, got, kern)
				requireSameBits(t, got, bluesteinComposed(e, bp, x, kern, false), "fused forward")
				got = append(got[:0], x...)
				e.BluesteinInverse(bp, got, kern)
				requireSameBits(t, got, bluesteinComposed(e, bp, x, kern, true), "fused inverse")
			}
		}
	}
}

// TestBluesteinBatchMatchesLoop: batch rows run one after another, so
// each row must match the single-shot call exactly, for the scalar
// kernels' interleaved convolution and the SoA kernels' fused one.
func TestBluesteinBatchMatchesLoop(t *testing.T) {
	const n, rows = 97, 5
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		t.Fatalf("NewBluesteinPlan(%d): %v", n, err)
	}
	eng := host.New(host.Config{Workers: 4, Threshold: 1})
	for _, kern := range []fft.Kernel{fft.KernelRadix2, fft.KernelSoARadix2, fft.KernelSoARadix4} {
		want := make([][]complex128, rows)
		batch := make([][]complex128, rows)
		for r := range batch {
			x := mixedSignal(n, int64(200+r))
			want[r] = append([]complex128(nil), x...)
			eng.BluesteinTransform(bp, want[r], kern)
			batch[r] = append([]complex128(nil), x...)
		}
		eng.BluesteinTransformBatch(bp, batch, kern)
		for r := range batch {
			requireSameBits(t, batch[r], want[r], "bluestein batch row")
		}
		for r := range batch {
			eng.BluesteinInverse(bp, want[r], kern)
		}
		eng.BluesteinInverseBatch(bp, batch, kern)
		for r := range batch {
			requireSameBits(t, batch[r], want[r], "bluestein batch inverse row")
		}
	}
}

// TestArbitraryNSteadyStateBytes pins the pooled scratch: after
// warm-up, a large mixed-radix or Bluestein call allocates well under
// one transform's worth of memory. The bound is 64 KiB per call, where
// a per-call ping-pong or convolution buffer alone would be 16–32 MiB.
// GC is disabled around the measurement so a collection cannot empty
// the pools mid-run, and the test runs on one P: sync.Pool keeps each
// P's most recent Put in a slot other Ps cannot see, so on several Ps
// a caller that migrated between calls can miss the pool now and then.
// That is the pool's locality, not a per-call allocation; the sharded
// paths still run, on goroutines sharing the one P.
func TestArbitraryNSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("million-point transforms")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 64 << 10
	eng := host.New(host.Config{Workers: 2})
	serial := host.New(host.Config{Workers: 1})
	perCall := func(fn func()) uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const calls = 2
		for i := 0; i < calls; i++ {
			fn() // warm the pools
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}

	mp, err := fft.NewMixedPlan(1000000)
	if err != nil {
		t.Fatal(err)
	}
	x := mixedSignal(mp.N, 1)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"MixedTransform", func() { eng.MixedTransform(mp, x) }},
		{"MixedInverse", func() { eng.MixedInverse(mp, x) }},
		{"MixedTransform/1-worker", func() { serial.MixedTransform(mp, x) }},
	} {
		if b := perCall(c.fn); b > limit {
			t.Errorf("N=%d %s: %d bytes per steady-state call, want ≤ %d", mp.N, c.name, b, limit)
		}
	}

	bp, err := fft.NewBluesteinPlan(1000003)
	if err != nil {
		t.Fatal(err)
	}
	y := mixedSignal(bp.N, 2)
	for _, kern := range []fft.Kernel{fft.KernelSoARadix4, fft.KernelRadix4} {
		fwd := perCall(func() { eng.BluesteinTransform(bp, y, kern) })
		inv := perCall(func() { eng.BluesteinInverse(bp, y, kern) })
		if fwd > limit || inv > limit {
			t.Errorf("N=%d %v: %d/%d bytes per steady-state forward/inverse call, want ≤ %d",
				bp.N, kern, fwd, inv, limit)
		}
	}
}
