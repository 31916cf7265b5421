package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"codeletfft"
)

// hostShapes are host-large's in-core transforms: a power of two (the
// staged kernels), a 7-smooth length (mixed-radix Stockham) and a prime
// (Bluestein over a 2^21 inner transform). Each array is 16 MiB.
var hostShapes = []struct {
	name string
	n    int
}{
	{"n1048576", 1 << 20},
	{"n1000000", 1000000},
	{"n1000003", 1000003},
}

// The convolution runs a 2^20-sample signal against 1023 taps, which
// overlap-save splits into 342 segments of 4096 points.
const (
	convN    = 1 << 20
	convK    = 1023
	convName = "conv4096"
)

// passLabels are the engine pass labels an observer can report.
var passLabels = []string{
	"bitrev", "stage", "stage_radix4", "stage_splitradix", "stage_soa2", "stage_soa4",
	"soa_pack", "soa_unpack", "conj", "scale", "stage_mixed", "chirp",
}

// hostLarge times a cycle of in-core CachedHostPlan transforms and one
// convolution from one caller with default options.
func hostLarge(e *env) error {
	rng := rand.New(rand.NewSource(e.opt.seed))
	inputs := make([][]complex128, len(hostShapes))
	checks := make([]*check, len(hostShapes))
	var x, h []complex128
	var cc *convCheck
	e.clock.exclude(func() {
		for i, s := range hostShapes {
			inputs[i] = randComplex(rng, s.n)
			checks[i] = fftCheck(inputs[i], newTwiddles(s.n), 8, rng, false)
		}
		x, h = randComplex(rng, convN), randComplex(rng, convK)
		cc = newConvCheck(x, h, 32, rng)
	})

	// Cold phase: the first correct result of every shape.
	buf := make([]complex128, 1<<20)
	plans := make([]*codeletfft.HostPlan, len(hostShapes))
	first := map[string]float64{}
	for i, s := range hostShapes {
		b := buf[:s.n]
		copy(b, inputs[i])
		sp := e.tr.start("cold engine.transform "+s.name, 0)
		t := time.Now()
		p, err := codeletfft.CachedHostPlan(s.n)
		if err != nil {
			return err
		}
		if err := p.Transform(b); err != nil {
			return err
		}
		first[s.name] = msSince(t)
		sp.end()
		plans[i] = p
		e.clock.exclude(func() { e.check(s.name, checks[i].verify(b)) })
	}
	dst := make([]complex128, convN+convK-1)
	sp := e.tr.start("cold conv.convolve", 0)
	t := time.Now()
	cp, err := codeletfft.NewConvPlan(convN, convK)
	if err != nil {
		return err
	}
	if err := cp.Convolve(dst, x, h); err != nil {
		return err
	}
	first[convName] = msSince(t)
	sp.end()
	e.clock.exclude(func() { e.check(convName, cc.verify(dst)) })
	e.e2e["setup_s"] = e.clock.seconds()
	if e.opt.setupOnly {
		return nil
	}

	// Steady phase: whole cycles until the measured time is spent.
	runtime.GC()
	times := make([][]float64, len(hostShapes)+1)
	var cycles []float64
	deadline := time.Now().Add(time.Duration(e.opt.seconds * float64(time.Second)))
	for len(cycles) < 3 || time.Now().Before(deadline) {
		cs := e.tr.start("host.cycle", 0)
		var cycle float64
		for i, s := range hostShapes {
			b := buf[:s.n]
			copy(b, inputs[i])
			sp := e.tr.start("engine.transform "+s.name, cs.id)
			t := time.Now()
			if err := plans[i].Transform(b); err != nil {
				return err
			}
			d := msSince(t)
			sp.end()
			e.check(s.name, checks[i].verify(b))
			times[i] = append(times[i], d)
			cycle += d
		}
		sp := e.tr.start("conv.convolve", cs.id)
		t := time.Now()
		if err := cp.Convolve(dst, x, h); err != nil {
			return err
		}
		d := msSince(t)
		sp.end()
		e.check(convName, cc.verify(dst))
		times[len(hostShapes)] = append(times[len(hostShapes)], d)
		cycle += d
		cs.end()
		cycles = append(cycles, cycle)
	}
	// Rates divide by median call times, so one stalled call moves the
	// tail metric, not the rates.
	var flops, flopMs, callMs float64
	for i, s := range hostShapes {
		flops += fftFlops(s.n)
		flopMs += median(times[i])
	}
	callMs = flopMs + median(times[len(hostShapes)])
	e.layer["loadgen.gflops"] = flops / flopMs / 1e6
	e.layer["loadgen.req_per_s"] = float64(len(hostShapes)+1) / (callMs / 1e3)
	e.e2e["p50_ms"] = median(cycles)
	e.info["latency_unit"] = "one cycle: every in-core shape once, then the convolution"
	e.info["latency_samples"] = len(cycles)

	kernels := map[string]string{}
	for i, s := range hostShapes {
		ms := median(times[i])
		e.layer["engine.ms."+s.name] = ms
		e.layer["engine.gflops."+s.name] = fftFlops(s.n) / ms / 1e6
		e.layer["engine.min_gbps."+s.name] = 32 * float64(s.n) / ms / 1e6
		e.layer["tune.first_use_ms."+s.name] = first[s.name] - ms
		kernels[s.name] = fmt.Sprintf("%s/%s", plans[i].Algorithm(), plans[i].Kernel())
	}
	convMs := median(times[len(hostShapes)])
	e.layer["conv.ms"] = convMs
	e.layer["conv.msps"] = float64(len(dst)) / convMs / 1e3
	e.layer["tune.first_use_ms."+convName] = first[convName] - convMs
	e.info["kernels"] = kernels
	e.info["array_mib"] = 16
	e.info["llc_mib"] = llcMiB()

	if e.tr == nil {
		return nil
	}
	if err := enginePasses(e, inputs, buf); err != nil {
		return err
	}
	seg, err := codeletfft.CachedHostPlan(cp.SegmentLen())
	if err != nil {
		return err
	}
	batchUs, err := timeBatch(seg, 64, false, 20)
	if err != nil {
		return err
	}
	e.layer["engine.batch4096_us"] = batchUs
	// The convolution's FFT work: one forward and one inverse batched
	// transform per segment, dispatched in groups of 64.
	segUs, err := timeBatch(seg, cp.Segments(), true, 5)
	if err != nil {
		return err
	}
	e.layer["conv.fft_share"] = segUs / 1e3 / convMs
	e.layer["mem.triad_gbps"] = triadGBps()
	e.layer["mem.triad_array_mb"] = triadArrayMiB
	e.layer["mem.llc_mb"] = llcMiB()
	return nil
}

// timeBatch returns the median time in µs, over reps repetitions, of
// transforming rows plan-length rows in TransformBatch calls of at most
// 64 rows, each followed by an InverseBatch when inverse is set.
func timeBatch(p *codeletfft.HostPlan, rows int, inverse bool, reps int) (float64, error) {
	n := p.N()
	slab := make([]complex128, 64*n)
	batch := make([][]complex128, 64)
	for i := range batch {
		batch[i] = slab[i*n : (i+1)*n]
		batch[i][i%n] = 1
	}
	var us []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for left := rows; left > 0; left -= 64 {
			b := batch[:min(64, left)]
			if err := p.TransformBatch(b); err != nil {
				return 0, err
			}
			if inverse {
				if err := p.InverseBatch(b); err != nil {
					return 0, err
				}
			}
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// passObserver sums engine pass time per label.
type passObserver struct {
	mu   sync.Mutex
	pass map[string]time.Duration
}

func (o *passObserver) ObserveBatch(int, int, time.Duration) {}

func (o *passObserver) ObservePass(pass string, d time.Duration) {
	o.mu.Lock()
	o.pass[pass] += d
	o.mu.Unlock()
}

// enginePasses runs each in-core shape on a plan with an observer and
// reports the pass time per label per cycle of the three transforms,
// and the share of transform time the passes account for.
func enginePasses(e *env, inputs [][]complex128, buf []complex128) error {
	const reps = 3
	obs := &passObserver{pass: map[string]time.Duration{}}
	var total time.Duration
	for i, s := range hostShapes {
		p, err := codeletfft.NewHostPlan(s.n, codeletfft.WithObserver(obs))
		if err != nil {
			return err
		}
		b := buf[:s.n]
		for r := 0; r < reps; r++ {
			copy(b, inputs[i])
			sp := e.tr.start("observed engine.transform "+s.name, 0)
			t := time.Now()
			if err := p.Transform(b); err != nil {
				return err
			}
			total += time.Since(t)
			sp.end()
		}
	}
	var covered time.Duration
	for _, l := range passLabels {
		covered += obs.pass[l]
		e.layer["engine.pass_ms."+l] = msOf(obs.pass[l]) / reps
	}
	e.layer["engine.pass_cover"] = covered.Seconds() / total.Seconds()
	return nil
}

// convCheck is the reference for a linear convolution y = x*h: seeded
// outputs summed directly, and the output sum and alternating sum,
// which equal (Σx)(Σh) and the same with alternating signs, so a single
// corrupted output anywhere is caught.
type convCheck struct {
	x, h   []complex128
	idx    []int
	want   []complex128
	rms    float64
	sum    complex128
	altSum complex128
}

func newConvCheck(x, h []complex128, nidx int, rng *rand.Rand) *convCheck {
	out := len(x) + len(h) - 1
	c := &convCheck{x: x, h: h}
	alt := func(v []complex128) complex128 {
		w := make([]complex128, len(v))
		for i, z := range v {
			if i%2 == 1 {
				z = -z
			}
			w[i] = z
		}
		return csum(w)
	}
	c.sum = csum(x) * csum(h)
	c.altSum = alt(x) * alt(h)
	c.rms = math.Sqrt(energy(x) * energy(h) / float64(len(x)))
	c.idx = []int{0, out - 1}
	for len(c.idx) < nidx {
		c.idx = append(c.idx, rng.Intn(out))
	}
	for _, i := range c.idx {
		c.want = append(c.want, c.direct(i))
	}
	return c
}

// direct evaluates output i as Σ_j x[j]·h[i-j] with compensation.
func (c *convCheck) direct(i int) complex128 {
	var re, im kahan
	for k := max(0, i-len(c.x)+1); k <= min(i, len(c.h)-1); k++ {
		p := c.x[i-k] * c.h[k]
		re.add(real(p))
		im.add(imag(p))
	}
	return complex(re.sum(), im.sum())
}

func (c *convCheck) verify(y []complex128) error {
	for j, i := range c.idx {
		if d := cmplx.Abs(y[i]-c.want[j]) / c.rms; !(d <= tol) {
			return fmt.Errorf("output %d off by %.3g (relative)", i, d)
		}
	}
	scale := math.Sqrt(float64(len(y))) * c.rms
	if d := cmplx.Abs(csum(y)-c.sum) / scale; !(d <= tol) {
		return fmt.Errorf("output sum off by %.3g (relative)", d)
	}
	var re, im kahan
	for i, v := range y {
		if i%2 == 1 {
			v = -v
		}
		re.add(real(v))
		im.add(imag(v))
	}
	if d := cmplx.Abs(complex(re.sum(), im.sum())-c.altSum) / scale; !(d <= tol) {
		return fmt.Errorf("alternating output sum off by %.3g (relative)", d)
	}
	return nil
}
