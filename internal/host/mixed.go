// Parallel execution of the arbitrary-N plans: the mixed-radix Stockham
// stages shard across workers exactly like the staged power-of-two
// stages (each butterfly unit reads and writes disjoint elements with
// self-contained arithmetic, so any sharding is bitwise identical to
// the serial pass), and the Bluestein path runs its chirp sweeps with
// parallelFor and its embedded power-of-two convolution through the
// kernel-selected engine entry points — inheriting their determinism
// guarantee wholesale. Under the SoA kernels that convolution never
// leaves the split planes: its packs shard by tile unit and its stages
// by pass unit, both partition-independent. Scratch (the Stockham
// ping-pong, the interleaved convolution buffer, the SoA frames) comes
// from pools, so steady-state calls do not allocate it.
package host

import (
	"sync"

	"codeletfft/internal/fft"
)

// MixedTransform applies the mixed-radix forward DFT in place, sharding
// each Stockham stage across the worker pool with a barrier between
// stages. Transforms smaller than the threshold run serially. Output is
// bitwise identical to mp.Transform regardless of worker count.
func (e *Engine) MixedTransform(mp *fft.MixedPlan, data []complex128) {
	if len(data) != mp.N {
		panic(fft.LengthError("data", len(data), mp.N))
	}
	work := getWork(mp.N)
	if mp.N < e.threshold || e.workers <= 1 {
		mp.TransformWith(data, *work)
	} else {
		e.mixedStages(mp, data, *work)
	}
	workPool.Put(work)
}

// mixedStages runs the stage passes over the data/work ping-pong pair,
// leaving the result in data — the parallel twin of
// MixedPlan.TransformWith.
func (e *Engine) mixedStages(mp *fft.MixedPlan, data, work []complex128) {
	src, dst := data, work
	for i := range mp.Stages {
		st := &mp.Stages[i]
		ts := e.passStart()
		e.parallelFor(st.Units(), func(_, lo, hi int) { st.Pass(src, dst, lo, hi) })
		e.passDone(PassStageMixed, ts)
		src, dst = dst, src
	}
	if len(mp.Stages)%2 == 1 {
		ts := e.passStart()
		e.parallelFor(len(data), func(_, lo, hi int) { copy(data[lo:hi], work[lo:hi]) })
		e.passDone(PassStageMixed, ts)
	}
}

// MixedInverse applies the mixed-radix inverse DFT in place via the
// conjugation identity, with the conjugate and scale sweeps also
// sharded. Output is bitwise identical to mp.InverseTransform.
func (e *Engine) MixedInverse(mp *fft.MixedPlan, data []complex128) {
	if len(data) != mp.N {
		panic(fft.LengthError("data", len(data), mp.N))
	}
	work := getWork(mp.N)
	if mp.N < e.threshold || e.workers <= 1 {
		mp.InverseTransformWith(data, *work)
	} else {
		e.conjSweep(data, false)
		e.mixedStages(mp, data, *work)
		e.scaleSweep(data, 1/float64(mp.N), false)
	}
	workPool.Put(work)
}

// MixedTransformBatch applies the mixed-radix forward DFT in place to
// every row of batch, sharding rows across workers (each worker runs
// whole serial transforms with a private ping-pong buffer). Output is
// bitwise identical to calling mp.Transform on each row in order.
func (e *Engine) MixedTransformBatch(mp *fft.MixedPlan, batch [][]complex128) {
	e.mixedBatch(mp, batch, (*fft.MixedPlan).TransformWith)
}

// MixedInverseBatch is MixedTransformBatch for the inverse DFT.
func (e *Engine) MixedInverseBatch(mp *fft.MixedPlan, batch [][]complex128) {
	e.mixedBatch(mp, batch, (*fft.MixedPlan).InverseTransformWith)
}

func (e *Engine) mixedBatch(mp *fft.MixedPlan, batch [][]complex128, run func(*fft.MixedPlan, []complex128, []complex128)) {
	for i, row := range batch {
		if len(row) != mp.N {
			panic(fft.BatchLengthError(i, len(row), mp.N))
		}
	}
	if len(batch) == 0 {
		return
	}
	t0 := e.passStart()
	e.shard(len(batch)*mp.N < e.threshold || e.workers <= 1, len(batch), func(lo, hi int) {
		work := getWork(mp.N)
		for i := lo; i < hi; i++ {
			run(mp, batch[i], *work)
		}
		workPool.Put(work)
	})
	e.batchDone(len(batch), mp.N, t0)
}

// workPool recycles the complex128 scratch of the mixed-radix
// ping-pong and the interleaved Bluestein convolution, so steady-state
// calls allocate none of it.
var workPool sync.Pool

// getWork returns a pooled n-element scratch buffer; its contents are
// arbitrary. Return it with workPool.Put.
func getWork(n int) *[]complex128 {
	p, _ := workPool.Get().(*[]complex128)
	if p == nil {
		p = new([]complex128)
	}
	if cap(*p) < n {
		*p = make([]complex128, n)
	}
	*p = (*p)[:n]
	return p
}

// BluesteinTransform applies the chirp-z forward DFT in place. Under
// the SoA kernels the embedded M-point convolution stays in split
// planes (bluesteinSoA); the scalar kernels run chirp sweeps around
// the engine's kernel-selected power-of-two transforms. Every sweep is
// elementwise or a partition-independent pack, and the transforms
// inherit the engine's determinism guarantee, so output for a fixed
// kernel is bitwise identical across worker counts.
func (e *Engine) BluesteinTransform(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel) {
	if len(data) != bp.N {
		panic(fft.LengthError("data", len(data), bp.N))
	}
	e.bluesteinOne(bp, data, kern, false)
}

// BluesteinInverse applies the chirp-z inverse DFT in place via the
// conjugation identity.
func (e *Engine) BluesteinInverse(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel) {
	if len(data) != bp.N {
		panic(fft.LengthError("data", len(data), bp.N))
	}
	e.bluesteinOne(bp, data, kern, true)
}

// bluesteinOne runs one forward or inverse chirp-z transform.
func (e *Engine) bluesteinOne(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel, inverse bool) {
	kern = kern.Concrete()
	if kern.SoA() {
		e.bluesteinSoA(bp, data, kern, inverse)
		return
	}
	serial := bp.M < e.threshold || e.workers <= 1
	if inverse {
		e.conjSweep(data, serial)
	}
	work := getWork(bp.M)
	e.bluestein(bp, data, *work, kern, serial)
	workPool.Put(work)
	if inverse {
		e.scaleSweep(data, 1/float64(bp.N), serial)
	}
}

// bluestein is the interleaved convolution of the scalar kernels:
// chirp into work, forward transform, ×BHat, inverse transform, chirp
// back out.
func (e *Engine) bluestein(bp *fft.BluesteinPlan, data, work []complex128, kern fft.Kernel, serial bool) {
	n := bp.N
	t0 := e.passStart()
	e.shard(serial, bp.M, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if t < n {
				work[t] = data[t] * bp.Chirp[t]
			} else {
				work[t] = 0
			}
		}
	})
	e.passDone(PassChirp, t0)
	e.TransformKernel(bp.Conv, work, bp.WConv, kern)
	t1 := e.passStart()
	e.shard(serial, bp.M, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			work[i] *= bp.BHat[i]
		}
	})
	e.passDone(PassChirp, t1)
	e.InverseTransformKernel(bp.Conv, work, bp.WConv, kern)
	t2 := e.passStart()
	e.shard(serial, n, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			data[k] = work[k] * bp.Chirp[k]
		}
	})
	e.passDone(PassChirp, t2)
}

// bluesteinSoA runs the convolution plane-resident in two pooled
// frames: chirp-and-pack into A, A's forward stages, the ×BHat pass
// packed into B, B's inverse stages, and the chirp-out pass — three
// memory passes around the stage sweeps (see internal/fft's bluestein.go).
// The packs report as PassSoAPack, the final pass as PassChirp.
func (e *Engine) bluesteinSoA(bp *fft.BluesteinPlan, data []complex128, kern fft.Kernel, inverse bool) {
	pl := bp.Conv
	serial := bp.M < e.threshold || e.workers <= 1
	st := pl.SoATwiddles(bp.WConv)
	a, b := fft.GetSoAFrame(bp.M), fft.GetSoAFrame(bp.M)
	units := fft.SoAPackUnits(pl.LogN)
	t0 := e.passStart()
	e.shard(serial, units, func(lo, hi int) { bp.ChirpPack(a, data, inverse, lo, hi) })
	e.passDone(PassSoAPack, t0)
	e.soaStages(pl, a, st, kern, serial)
	t1 := e.passStart()
	e.shard(serial, units, func(lo, hi int) { bp.MulPack(b, a, lo, hi) })
	e.passDone(PassSoAPack, t1)
	e.soaStages(pl, b, st, kern, serial)
	t2 := e.passStart()
	e.shard(serial, bp.N, func(lo, hi int) { bp.ChirpUnpack(data, b, inverse, lo, hi) })
	e.passDone(PassChirp, t2)
	a.Release()
	b.Release()
}

// BluesteinTransformBatch applies the chirp-z forward DFT in place to
// every row of batch in order; the parallelism lives inside each row's
// engine dispatch. Output is bitwise identical to calling
// BluesteinTransform per row.
func (e *Engine) BluesteinTransformBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel) {
	e.bluesteinBatch(bp, batch, kern, false)
}

// BluesteinInverseBatch is BluesteinTransformBatch for the inverse DFT.
func (e *Engine) BluesteinInverseBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel) {
	e.bluesteinBatch(bp, batch, kern, true)
}

func (e *Engine) bluesteinBatch(bp *fft.BluesteinPlan, batch [][]complex128, kern fft.Kernel, inverse bool) {
	for i, row := range batch {
		if len(row) != bp.N {
			panic(fft.BatchLengthError(i, len(row), bp.N))
		}
	}
	if len(batch) == 0 {
		return
	}
	t0 := e.passStart()
	for _, row := range batch {
		e.bluesteinOne(bp, row, kern, inverse)
	}
	e.batchDone(len(batch), bp.N, t0)
}
