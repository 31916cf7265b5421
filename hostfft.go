package codeletfft

import (
	"context"
	"sync"
	"sync/atomic"

	"codeletfft/internal/cache"
	"codeletfft/internal/fft"
	"codeletfft/internal/host"
	"codeletfft/internal/tune"
)

// Sentinel errors re-exported from the core package so callers can test
// failure modes with errors.Is without importing internal packages.
// Length-mismatch panics raised by Transform and friends carry an error
// value wrapping ErrLengthMismatch.
var (
	// ErrUnsupportedLength reports a transform length no planner accepts:
	// non-positive everywhere, odd or < 4 for the real-input path,
	// non-power-of-two for the 2-D path. Complex 1-D plans support every
	// n ≥ 1, so NewHostPlan only returns it for n < 1.
	ErrUnsupportedLength = fft.ErrUnsupportedLength
	// ErrBadTaskSize reports a task size that is not a power of two ≥ 2
	// or exceeds the transform length.
	ErrBadTaskSize = fft.ErrBadTaskSize
	// ErrLengthMismatch reports a data slice whose length does not match
	// the plan. It is delivered by panic, not by return value, because it
	// is a programming error rather than an environmental condition.
	ErrLengthMismatch = fft.ErrLengthMismatch
)

// Kernel selects the butterfly factorization a plan runs: KernelAuto
// (the default) lets the autotuner race the concrete kernels for the
// plan's (N, task size, workers) shape on first use and memoize the
// winner; the other values pin one factorization. All kernels compute
// the same DFT over the same staged decomposition — outputs of one plan
// are bitwise deterministic, outputs of different kernels agree to
// rounding.
type Kernel = fft.Kernel

// Kernel values for WithKernel.
const (
	KernelAuto       = fft.KernelAuto
	KernelRadix2     = fft.KernelRadix2
	KernelRadix4     = fft.KernelRadix4
	KernelSplitRadix = fft.KernelSplitRadix
	KernelSoARadix2  = fft.KernelSoARadix2
	KernelSoARadix4  = fft.KernelSoARadix4
)

// Kernels lists the concrete (executable) kernels in a stable order —
// the candidate set KernelAuto picks from.
func Kernels() []Kernel { return fft.ConcreteKernels() }

// ParseKernel maps kernel names ("auto", "radix2", "radix4",
// "splitradix", "soa2", "soa4"; case-insensitive, "split-radix",
// "soa-radix2", "soa-radix4" and plain "soa" accepted) to Kernel
// values — the -kernel flag parser of the daemons.
func ParseKernel(s string) (Kernel, error) { return fft.ParseKernel(s) }

// Acceleration names the SIMD codelet backend the SoA kernels
// (KernelSoARadix2, KernelSoARadix4) run on in this process:
// "avx2+fma", "neon", or "generic" when the binary was built with the
// noasm tag or the CPU lacks the features. The scalar kernels are
// unaffected by it; KernelAuto measures whatever backend is active, so
// a "generic" process simply tunes away from the SoA family when the
// pure-Go loops lose.
func Acceleration() string { return fft.SoAAccel() }

// Plan is the one interface every transform provider implements: host
// plans (NewHostPlan), cached host plans (CachedHostPlan), and the
// cluster client (cluster.New) alike. Methods transform in place.
//
// Host plans never return errors from these methods — invalid lengths
// are programming errors and panic (wrapping ErrLengthMismatch) — while
// the cluster client surfaces transport failures; code written against
// Plan handles the error and works unchanged against either.
//
// The Ctx variants check the context before starting; once a transform
// is running it completes (data is never left torn mid-transform).
// Providers with genuinely cancellable work (the cluster client) honor
// the context throughout.
type Plan interface {
	Transform(data []complex128) error
	Inverse(data []complex128) error
	TransformBatch(batch [][]complex128) error
	InverseBatch(batch [][]complex128) error
	TransformCtx(ctx context.Context, data []complex128) error
	InverseCtx(ctx context.Context, data []complex128) error
}

var _ Plan = (*HostPlan)(nil)

// hostOpts is the resolved option set for plan construction.
type hostOpts struct {
	taskSize  int
	workers   int
	threshold int
	observer  EngineObserver
	kern      Kernel
}

// EngineObserver receives execution telemetry from a plan's parallel
// engine: one ObserveBatch call per batched dispatch (its occupancy and
// wall time) and one ObservePass call per lockstep pass (bit-reversal,
// each butterfly stage, the inverse path's conjugate/scale sweeps).
// Implementations must be cheap and safe for concurrent use; the
// serving daemon backs one with atomic histogram instruments.
type EngineObserver = host.Observer

// HostOption configures NewHostPlan, NewHostPlan2D, NewRealPlan, and
// their Cached variants.
type HostOption func(*hostOpts)

// WithTaskSize selects the P-point kernel size of the staged
// decomposition (the paper's codelet size). It must be a power of two
// between 2 and the transform length; 64 — the paper's sweet spot — is
// the default. For a transform shorter than the default, the task size
// is clamped to the transform length. Mixed-radix and Bluestein plans
// (non-power-of-two lengths) have no task-size knob and ignore it.
func WithTaskSize(p int) HostOption {
	return func(o *hostOpts) { o.taskSize = p }
}

// WithWorkers sets the goroutine count of the parallel engine behind
// Transform, TransformBatch, and friends. 0 (the default) means
// GOMAXPROCS.
func WithWorkers(n int) HostOption {
	return func(o *hostOpts) { o.workers = n }
}

// WithThreshold sets the minimum element count (N for a single
// transform, B·N for a batch) at which the parallel path engages;
// smaller workloads run serially, where dispatch overhead would
// dominate. 0 means the package default (8192); 1 forces the parallel
// path at every size.
func WithThreshold(n int) HostOption {
	return func(o *hostOpts) { o.threshold = n }
}

// WithObserver attaches an EngineObserver to the plan's parallel
// engine, so the batch and parallel paths report occupancy and
// per-pass latency instead of being measured from outside.
func WithObserver(obs EngineObserver) HostOption {
	return func(o *hostOpts) { o.observer = obs }
}

// WithKernel pins the butterfly kernel (KernelRadix2, KernelRadix4,
// KernelSplitRadix) or requests autotuned selection (KernelAuto, the
// default): on the plan's first transform the candidates are raced once
// on this plan's exact execution configuration and the winner is
// memoized process-wide per (N, task size, workers) — later plans of
// the same shape reuse it without measuring.
func WithKernel(k Kernel) HostOption {
	return func(o *hostOpts) { o.kern = k }
}

func resolveOpts(n int, opts []HostOption) hostOpts {
	o := hostOpts{taskSize: min(64, n)}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// engine builds the parallel engine the resolved options describe.
func (o hostOpts) engine() *host.Engine {
	return host.New(host.Config{Workers: o.workers, Threshold: o.threshold, Observer: o.observer})
}

// hostCore is the immutable, shareable part of a HostPlan: the plan the
// length routed to, the twiddle table, and the lazily built real-input
// plan. CachedHostPlan hands the same core to many HostPlans; only the
// engine differs per plan. Exactly one of pl (power-of-two staged
// decomposition), mixed (mixed-radix Stockham schedule), and blue
// (Bluestein chirp-z embedding) is non-nil.
type hostCore struct {
	n     int
	pl    *fft.Plan
	w     []complex128
	mixed *fft.MixedPlan
	blue  *fft.BluesteinPlan
}

// newHostCore routes a length to its planner: powers of two ≥ 2 keep
// the staged decomposition (bitwise-identical to every prior release),
// lengths factoring over {2,3,5,7} get the mixed-radix plan, and
// everything else ≥ 1 gets the Bluestein fallback. Only n < 1 fails.
// When kern can run an SoA kernel (KernelAuto, or a pinned SoA kernel)
// the split-plane twiddle tables are built here, at plan time, so the
// first transform does not pay for them outside every engine pass.
func newHostCore(n, taskSize int, kern Kernel) (*hostCore, error) {
	soa := kern == fft.KernelAuto || kern.SoA()
	if n >= 2 && n&(n-1) == 0 {
		pl, err := fft.NewPlan(n, taskSize)
		if err != nil {
			return nil, err
		}
		w := fft.Twiddles(n)
		if soa {
			pl.SoATwiddles(w)
		}
		return &hostCore{n: n, pl: pl, w: w}, nil
	}
	mp, err := fft.NewMixedPlan(n)
	if err == nil {
		return &hostCore{n: n, mixed: mp}, nil
	}
	if n < 1 {
		return nil, err
	}
	bp, err := fft.NewBluesteinPlan(n)
	if err != nil {
		return nil, err
	}
	if soa {
		bp.Conv.SoATwiddles(bp.WConv)
	}
	return &hostCore{n: n, blue: bp}, nil
}

// planKey identifies a cached core: transform length, task size, the
// requested kernel (including KernelAuto — an Auto plan and a pinned
// plan are distinct cache entries, so pinning a kernel for one caller
// can never change what another caller's Auto plan resolved), and the
// radix signature of the length, so a mixed-radix core and a Bluestein
// core can never alias even under hash collisions on n.
type planKey struct {
	n, p int
	kern Kernel
	sig  uint64
}

func planKeyHash(k planKey) uint64 {
	h := uint64(k.n)*0x9e3779b97f4a7c15 ^ uint64(k.p)*0xbf58476d1ce4e5b9 ^ uint64(k.kern)*0xff51afd7ed558ccd
	h ^= k.sig * 0xd6e8feb86659fd93
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	return h ^ h>>32
}

// coreKey builds the cache key for a length: non-power-of-two lengths
// ignore the task size (the mixed/Bluestein planners don't take one),
// so callers differing only in WithTaskSize share one core.
func coreKey(n int, o hostOpts) planKey {
	p := o.taskSize
	if n < 2 || n&(n-1) != 0 {
		p = 0
	}
	return planKey{n: n, p: p, kern: o.kern, sig: fft.RadixSignature(n)}
}

// planCache memoizes plan cores across CachedHostPlan calls. 8 shards ×
// 16 entries bounds it at 128 cores; serving workloads use a handful of
// sizes, so eviction is rare in practice.
var planCache = cache.New[planKey, *hostCore](8, 16, planKeyHash)

// realCache memoizes real-input cores across CachedRealPlan calls,
// bounded the same way as planCache.
var realCache = cache.New[planKey, realCore](8, 16, planKeyHash)

// PlanCacheLen reports how many plan cores CachedHostPlan currently
// retains — an observability hook for serving systems.
func PlanCacheLen() int { return planCache.Len() }

// PlanCacheStats reports the plan cache's lifetime hit and miss counts
// — the companion observability hook to PlanCacheLen. A CachedHostPlan
// call that reuses (or joins the single-flight construction of) a core
// counts as a hit; one that starts construction counts as a miss.
func PlanCacheStats() (hits, misses int64) { return planCache.Stats() }

// HostPlan exposes the staged FFT decomposition for direct numeric use on
// the host, without the machine simulation: the same kernels the
// simulated codelets execute, callable as a plain FFT library.
//
// A HostPlan is immutable after construction, so one plan may serve
// concurrent Transform or TransformBatch calls on distinct data arrays.
// Transform runs on the plan's parallel engine — sharded across workers
// above the threshold, serial below it, bitwise identical either way.
type HostPlan struct {
	core *hostCore
	eng  *host.Engine
	opts hostOpts
	kern atomic.Int32 // resolved concrete kernel; 0 until first use
}

// NewHostPlan builds a host-side plan for n-point transforms, any
// n ≥ 1. Powers of two run the staged decomposition (64-point kernels
// by default, clamped to n); other lengths factoring over {2, 3, 5, 7}
// run the mixed-radix Stockham schedule (WithTaskSize is ignored); and
// lengths with larger prime factors run the Bluestein chirp-z plan,
// whose embedded power-of-two convolution still honors WithKernel. All
// paths use a GOMAXPROCS parallel engine by default; functional options
// override each knob:
//
//	p, err := codeletfft.NewHostPlan(1<<20,
//	    codeletfft.WithTaskSize(64),
//	    codeletfft.WithWorkers(8),
//	    codeletfft.WithKernel(codeletfft.KernelSplitRadix))
func NewHostPlan(n int, opts ...HostOption) (*HostPlan, error) {
	o := resolveOpts(n, opts)
	core, err := newHostCore(n, o.taskSize, o.kern)
	if err != nil {
		return nil, err
	}
	return &HostPlan{core: core, eng: o.engine(), opts: o}, nil
}

// CachedHostPlan is NewHostPlan backed by a process-wide, size-bounded,
// concurrency-safe plan cache keyed by (n, task size, kernel). Repeated
// calls for one shape share the stage decomposition and twiddle table —
// concurrent first calls run plan construction once (single-flight) —
// so serving code can call it per request instead of hand-managing
// plan lifetimes. The engine options (WithWorkers, WithThreshold) are
// still applied per returned plan, and an Auto plan's tuned kernel is
// memoized per (n, task size, workers), so a cache-resolved plan never
// re-measures a shape the process has already tuned.
func CachedHostPlan(n int, opts ...HostOption) (*HostPlan, error) {
	o := resolveOpts(n, opts)
	core, err := planCache.GetOrCreate(coreKey(n, o), func() (*hostCore, error) {
		return newHostCore(n, o.taskSize, o.kern)
	})
	if err != nil {
		return nil, err
	}
	return &HostPlan{core: core, eng: o.engine(), opts: o}, nil
}

// N returns the transform length.
func (h *HostPlan) N() int { return h.core.n }

// TaskSize returns the P-point kernel size of the staged power-of-two
// decomposition, or 0 for mixed-radix and Bluestein plans, which have
// no task-size knob.
func (h *HostPlan) TaskSize() int {
	if h.core.pl == nil {
		return 0
	}
	return h.core.pl.P
}

// Algorithm names the decomposition the length routed to: "staged" for
// powers of two, "mixed-radix[…]" with the radix schedule, or
// "bluestein[M=…]" with the embedded convolution length.
func (h *HostPlan) Algorithm() string {
	switch {
	case h.core.pl != nil:
		return "staged"
	case h.core.mixed != nil:
		return h.core.mixed.String()
	default:
		return h.core.blue.String()
	}
}

// Workers returns the worker count the parallel engine resolved.
func (h *HostPlan) Workers() int { return h.eng.Workers() }

// Kernel returns the concrete kernel this plan runs, resolving
// KernelAuto through the autotuner if no transform has run yet.
func (h *HostPlan) Kernel() Kernel { return h.kernel() }

// kernel resolves the plan's concrete kernel on first use. For a pinned
// kernel this is a plain conversion; for KernelAuto it asks the tuner,
// which memoizes per (N, task size, workers) process-wide and runs the
// measurement single-flight. The measurement drives an observer-free
// engine with this plan's workers and threshold, so tuning runs don't
// pollute serving telemetry.
func (h *HostPlan) kernel() fft.Kernel {
	if k := h.kern.Load(); k != 0 {
		return fft.Kernel(k)
	}
	var k fft.Kernel
	switch {
	case h.core.pl != nil:
		k = resolveKernel(h.opts, h.core.pl, h.core.w)
	case h.core.blue != nil:
		// The Bluestein plan's heavy lifting is its embedded M-point
		// convolution, so that is the shape the tuner races.
		k = resolveKernel(h.opts, h.core.blue.Conv, h.core.blue.WConv)
	default:
		// Mixed-radix stages have their own codelets per radix; the
		// kernel family doesn't apply, so Auto resolves to the default
		// without measuring.
		k = h.opts.kern.Concrete()
	}
	h.kern.Store(int32(k))
	return k
}

func resolveKernel(o hostOpts, pl *fft.Plan, w []complex128) fft.Kernel {
	if o.kern != fft.KernelAuto {
		return o.kern.Concrete()
	}
	meas := host.New(host.Config{Workers: o.workers, Threshold: o.threshold})
	return tune.Resolve(
		tune.Key{N: pl.N, TaskSize: pl.P, Workers: meas.Workers()},
		fft.ConcreteKernels(),
		func(k fft.Kernel, data []complex128) { meas.TransformKernel(pl, data, w, k) })
}

// Transform applies the forward FFT in place on the plan's parallel
// engine (serial below the threshold; bitwise identical either way).
// len(data) must equal N; a mismatch panics with an error wrapping
// ErrLengthMismatch. The returned error is always nil for host plans —
// it exists so HostPlan satisfies Plan alongside the cluster client.
func (h *HostPlan) Transform(data []complex128) error {
	switch {
	case h.core.pl != nil:
		h.eng.TransformKernel(h.core.pl, data, h.core.w, h.kernel())
	case h.core.mixed != nil:
		h.eng.MixedTransform(h.core.mixed, data)
	default:
		h.eng.BluesteinTransform(h.core.blue, data, h.kernel())
	}
	return nil
}

// Inverse applies the inverse FFT in place. See Transform for the
// error and panic contract.
func (h *HostPlan) Inverse(data []complex128) error {
	switch {
	case h.core.pl != nil:
		h.eng.InverseTransformKernel(h.core.pl, data, h.core.w, h.kernel())
	case h.core.mixed != nil:
		h.eng.MixedInverse(h.core.mixed, data)
	default:
		h.eng.BluesteinInverse(h.core.blue, data, h.kernel())
	}
	return nil
}

// TransformCtx is Transform with a pre-flight context check: a done
// context returns its error without touching data; once the transform
// starts it runs to completion (in-place data is never left torn).
func (h *HostPlan) TransformCtx(ctx context.Context, data []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Transform(data)
}

// InverseCtx is Inverse with a pre-flight context check.
func (h *HostPlan) InverseCtx(ctx context.Context, data []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Inverse(data)
}

// TransformBatch applies the forward FFT in place to every transform in
// batch through one worker-pool dispatch: workers steal (transform,
// task-chunk) units within each lockstep stage pass, so B transforms
// cost the stage-barrier overhead of one. Every slice must have length
// N; a bad row panics with an error wrapping ErrLengthMismatch that
// names the row's batch index. Output is bitwise identical to calling
// Transform in a loop, and the steady-state path performs no
// allocation.
func (h *HostPlan) TransformBatch(batch [][]complex128) error {
	switch {
	case h.core.pl != nil:
		h.eng.TransformBatchKernel(h.core.pl, batch, h.core.w, h.kernel())
	case h.core.mixed != nil:
		h.eng.MixedTransformBatch(h.core.mixed, batch)
	default:
		h.eng.BluesteinTransformBatch(h.core.blue, batch, h.kernel())
	}
	return nil
}

// InverseBatch applies the inverse FFT in place to every transform in
// batch through one worker-pool dispatch. Output is bitwise identical
// to calling Inverse in a loop.
func (h *HostPlan) InverseBatch(batch [][]complex128) error {
	switch {
	case h.core.pl != nil:
		h.eng.InverseBatchKernel(h.core.pl, batch, h.core.w, h.kernel())
	case h.core.mixed != nil:
		h.eng.MixedInverseBatch(h.core.mixed, batch)
	default:
		h.eng.BluesteinInverseBatch(h.core.blue, batch, h.kernel())
	}
	return nil
}

// RealPlan transforms length-N real signals through the packed
// N/2-point complex path on a parallel engine. Any even n ≥ 4 is
// accepted: powers of two run the fused staged path (bitwise identical
// to prior releases), other even lengths pack into an N/2-point
// mixed-radix or Bluestein half plan with the same O(N) split pass —
// the real surface is no longer power-of-two-only. It is built with
// the same HostOption set as HostPlan (task size, workers, threshold,
// observer, kernel) and resolves its kernel the same way: autotuned on
// first use under KernelAuto, pinned otherwise.
//
// A RealPlan is immutable after construction and safe for concurrent
// use on distinct buffers.
type RealPlan struct {
	rp   *fft.RealPlan  // staged power-of-two path; nil on the general path
	gen  *fft.RealSplit // general even-N split pass; nil on the staged path
	half *HostPlan      // general path's N/2-point plan
	eng  *host.Engine
	opts hostOpts
	kern atomic.Int32
	pool sync.Pool // *realScratch, general path only
}

// realScratch is the general real path's per-call state: the inverse
// pass's N/2 work buffer and a reusable batch-of-1 header, so the
// steady-state Transform/Inverse cycle performs no allocation.
type realScratch struct {
	work  []complex128
	batch [][]complex128
}

// realCore is what realCache memoizes: exactly one of the staged plan
// and the general split is non-nil, mirroring the facade RealPlan.
type realCore struct {
	rp  *fft.RealPlan
	gen *fft.RealSplit
}

func (c realCore) n() int {
	if c.rp != nil {
		return c.rp.N
	}
	return c.gen.N
}

// newRealCore routes a real-input length: powers of two ≥ 4 build the
// fused staged plan, other even lengths ≥ 4 build the split-pass
// tables (their half transform is a HostPlan). Odd or < 4 fails with
// ErrUnsupportedLength.
func newRealCore(n, taskSize int) (realCore, error) {
	if n >= 4 && n&(n-1) == 0 {
		rp, err := fft.NewRealPlan(n, taskSize)
		if err != nil {
			return realCore{}, err
		}
		return realCore{rp: rp}, nil
	}
	gen, err := fft.NewRealSplit(n)
	if err != nil {
		return realCore{}, err
	}
	return realCore{gen: gen}, nil
}

// newRealPlan assembles the facade plan around a routed core; the
// general path builds (or cache-shares) its N/2-point half plan here.
func newRealPlan(core realCore, o hostOpts, opts []HostOption, cached bool) (*RealPlan, error) {
	r := &RealPlan{rp: core.rp, gen: core.gen, opts: o}
	if core.rp != nil {
		r.eng = o.engine()
		return r, nil
	}
	h := core.gen.N / 2
	var half *HostPlan
	var err error
	if cached {
		half, err = CachedHostPlan(h, opts...)
	} else {
		half, err = NewHostPlan(h, opts...)
	}
	if err != nil {
		return nil, err
	}
	r.half = half
	r.eng = half.eng
	r.pool.New = func() any {
		return &realScratch{work: make([]complex128, h), batch: make([][]complex128, 1)}
	}
	return r, nil
}

// NewRealPlan builds a real-input plan for n-point transforms, any even
// n ≥ 4.
func NewRealPlan(n int, opts ...HostOption) (*RealPlan, error) {
	o := resolveOpts(n, opts)
	core, err := newRealCore(n, o.taskSize)
	if err != nil {
		return nil, err
	}
	return newRealPlan(core, o, opts, false)
}

// CachedRealPlan is NewRealPlan backed by a process-wide cache keyed by
// (n, task size, kernel), sharing the packed plan and twiddle tables
// across calls the way CachedHostPlan shares cores. The general even-N
// path additionally shares its N/2-point half core through the plan
// cache.
func CachedRealPlan(n int, opts ...HostOption) (*RealPlan, error) {
	o := resolveOpts(n, opts)
	core, err := realCache.GetOrCreate(coreKey(n, o), func() (realCore, error) {
		return newRealCore(n, o.taskSize)
	})
	if err != nil {
		return nil, err
	}
	return newRealPlan(core, o, opts, true)
}

// N returns the real-input length.
func (r *RealPlan) N() int {
	if r.rp != nil {
		return r.rp.N
	}
	return r.gen.N
}

// SpectrumLen returns N/2+1, the half-spectrum buffer length Transform
// fills and Inverse consumes.
func (r *RealPlan) SpectrumLen() int { return r.N()/2 + 1 }

// Algorithm names the path the length routed to: "real+staged" for
// powers of two, otherwise "real+" followed by the half plan's
// algorithm (mixed-radix schedule or Bluestein embedding).
func (r *RealPlan) Algorithm() string {
	if r.rp != nil {
		return "real+staged"
	}
	return "real+" + r.half.Algorithm()
}

// Workers returns the worker count the parallel engine resolved.
func (r *RealPlan) Workers() int { return r.eng.Workers() }

// Kernel returns the concrete kernel this plan runs, resolving
// KernelAuto through the autotuner if no transform has run yet. The
// tuning shape is the packed N/2-point half transform, so real and
// complex plans of matching half shapes share one memoized winner.
func (r *RealPlan) Kernel() Kernel { return r.kernel() }

func (r *RealPlan) kernel() fft.Kernel {
	if r.rp == nil {
		return r.half.kernel()
	}
	if k := r.kern.Load(); k != 0 {
		return fft.Kernel(k)
	}
	k := resolveKernel(r.opts, r.rp.Half, r.rp.WHalf)
	r.kern.Store(int32(k))
	return k
}

// Transform computes the half-spectrum of the length-N real signal x
// into spec (length SpectrumLen). x is not modified; wrong-length
// buffers panic with an error wrapping ErrLengthMismatch. The error is
// always nil — it mirrors the Plan interface convention.
func (r *RealPlan) Transform(spec []complex128, x []float64) error {
	if r.rp != nil {
		r.eng.RealTransformKernel(r.rp, spec, x, r.kernel())
		return nil
	}
	r.gen.Pack(spec, x)
	sc := r.pool.Get().(*realScratch)
	sc.batch[0] = spec[:r.gen.N/2]
	err := r.half.TransformBatch(sc.batch)
	sc.batch[0] = nil
	r.pool.Put(sc)
	if err != nil {
		return err
	}
	r.gen.Unpack(spec)
	return nil
}

// Inverse recovers the length-N real signal x from its half-spectrum
// spec, inverting Transform. spec is not modified.
func (r *RealPlan) Inverse(x []float64, spec []complex128) error {
	if r.rp != nil {
		r.eng.RealInverseKernel(r.rp, x, spec, r.kernel())
		return nil
	}
	sc := r.pool.Get().(*realScratch)
	defer func() {
		sc.batch[0] = nil
		r.pool.Put(sc)
	}()
	r.gen.PreInverse(sc.work, spec)
	sc.batch[0] = sc.work
	if err := r.half.InverseBatch(sc.batch); err != nil {
		return err
	}
	r.gen.PostInverse(x, sc.work)
	return nil
}

// TransformCtx is Transform with a pre-flight context check.
func (r *RealPlan) TransformCtx(ctx context.Context, spec []complex128, x []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Transform(spec, x)
}

// InverseCtx is Inverse with a pre-flight context check.
func (r *RealPlan) InverseCtx(ctx context.Context, x []float64, spec []complex128) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Inverse(x, spec)
}

// HostPlan2D is the 2-D row-column analogue of HostPlan. Transform and
// Inverse run on the plan's parallel engine with the plan's kernel.
type HostPlan2D struct {
	pl   *fft.Plan2D
	eng  *host.Engine
	opts hostOpts
	kern atomic.Int32
}

// NewHostPlan2D builds a host-side plan for rows×cols transforms. It
// accepts the same functional options as NewHostPlan; the task size is
// clamped to each axis length as needed by the row-column pass.
func NewHostPlan2D(rows, cols int, opts ...HostOption) (*HostPlan2D, error) {
	o := resolveOpts(min(rows, cols), opts)
	pl, err := fft.NewPlan2D(rows, cols, o.taskSize)
	if err != nil {
		return nil, err
	}
	return &HostPlan2D{pl: pl, eng: o.engine(), opts: o}, nil
}

// Workers returns the worker count the parallel engine resolved.
func (h *HostPlan2D) Workers() int { return h.eng.Workers() }

// Kernel returns the concrete kernel this plan runs. Auto resolution
// tunes on the row transform's shape (the hotter of the two passes).
func (h *HostPlan2D) Kernel() Kernel { return h.kernel() }

func (h *HostPlan2D) kernel() fft.Kernel {
	if k := h.kern.Load(); k != 0 {
		return fft.Kernel(k)
	}
	k := resolveKernel(h.opts, h.pl.RowPlan, h.pl.WRow)
	h.kern.Store(int32(k))
	return k
}

// Transform applies the forward 2-D FFT in place (row-major data) on
// the plan's parallel engine: rows sharded across workers, then
// columns. The error is always nil; wrong-length data panics with an
// error wrapping ErrLengthMismatch.
func (h *HostPlan2D) Transform(data []complex128) error {
	h.eng.Transform2DKernel(h.pl, data, h.kernel())
	return nil
}

// Inverse applies the inverse 2-D FFT in place.
func (h *HostPlan2D) Inverse(data []complex128) error {
	h.eng.InverseTransform2DKernel(h.pl, data, h.kernel())
	return nil
}

// DFT computes the discrete Fourier transform directly in O(n²) — the
// ground-truth reference (any length).
func DFT(x []complex128) []complex128 { return fft.DFT(x) }

// FFT computes the transform of a power-of-two-length input with the
// recursive Cooley-Tukey algorithm, allocating the result.
func FFT(x []complex128) []complex128 { return fft.Recursive(x) }

// IFFT computes the inverse transform, allocating the result.
func IFFT(x []complex128) []complex128 { return fft.Inverse(x) }

// StockhamFFT computes the transform of a power-of-two-length input with the
// radix-2 Stockham autosort algorithm (no bit-reversal pass), allocating
// the result.
func StockhamFFT(x []complex128) []complex128 { return fft.Stockham(x) }
