package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"codeletfft"
	"codeletfft/cluster"
)

// largeN is the cluster-ooc transform length: 2^22 points, a 64 MiB
// array, four times the out-of-core plan's memory budget.
const (
	largeN     = 1 << 22
	oocBudget  = 16 << 20
	largeShape = "n4194304"
)

// clusterOOC alternates a forward transform on a 2-worker loopback
// cluster (resident sessions, peer transpose) with a file-to-file
// out-of-core transform under a 16 MiB budget, from one caller.
func clusterOOC(e *env) error {
	rng := rand.New(rand.NewSource(e.opt.seed))
	src := filepath.Join(e.dir, "in.c128")
	dst := filepath.Join(e.dir, "out.c128")
	spill := filepath.Join(e.dir, "spill")
	var x []complex128
	var c *check
	var err error
	e.clock.exclude(func() {
		x = randComplex(rng, largeN)
		c = fftCheck(x, newTwiddles(largeN), 8, rng, false)
		if err = writeC128(src, x); err == nil {
			err = os.Mkdir(spill, 0o755)
		}
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	buf := make([]complex128, largeN)

	// Cold phase: build both, and the first correct result of each.
	cold := e.tr.start("cluster-ooc.cold", 0)
	cl, err := cluster.NewLoopback(2, cluster.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	op, err := codeletfft.NewOOCPlan(largeN, codeletfft.OOCSpillDir(spill), codeletfft.OOCMemoryBudget(oocBudget))
	if err != nil {
		return err
	}
	// Each run times one call and hands its output check to verify,
	// which the cold phase keeps out of set-up time.
	runCluster := func(parent int64, verify func(func())) (float64, error) {
		copy(buf, x)
		sp := e.tr.start("cluster.Transform", parent)
		t := time.Now()
		err := cl.Transform(buf)
		d := msSince(t)
		sp.end()
		if err == nil {
			verify(func() { e.check("cluster", c.verify(buf)) })
		}
		return d, err
	}
	runOOC := func(parent int64, verify func(func())) (float64, error) {
		sp := e.tr.start("ooc.TransformFile", parent)
		t := time.Now()
		err := op.TransformFile(ctx, dst, src)
		d := msSince(t)
		sp.end()
		if err == nil {
			verify(func() {
				if err = readC128(dst, buf); err == nil {
					e.check("ooc", c.verify(buf))
				}
			})
		}
		return d, err
	}
	if _, err := runCluster(cold.id, e.clock.exclude); err != nil {
		return err
	}
	if _, err := runOOC(cold.id, e.clock.exclude); err != nil {
		return err
	}
	cold.end()
	e.e2e["setup_s"] = e.clock.seconds()
	if e.opt.setupOnly {
		return nil
	}

	runtime.GC()
	dist0, ooc0 := cl.Snapshot(), op.Snapshot()
	var clusterMs, oocMs, cycles []float64
	deadline := time.Now().Add(time.Duration(e.opt.seconds * float64(time.Second)))
	now := func(f func()) { f() }
	for len(cycles) < 3 || time.Now().Before(deadline) {
		cs := e.tr.start("cluster-ooc.cycle", 0)
		a, err := runCluster(cs.id, now)
		if err != nil {
			return err
		}
		b, err := runOOC(cs.id, now)
		if err != nil {
			return err
		}
		cs.end()
		clusterMs = append(clusterMs, a)
		oocMs = append(oocMs, b)
		cycles = append(cycles, a+b)
	}
	dist1, ooc1 := cl.Snapshot(), op.Snapshot()

	// Rates divide by median call times, so one stalled call moves the
	// tail metric, not the rates.
	cms, oms := median(clusterMs), median(oocMs)
	e.layer["loadgen.gflops"] = 2 * fftFlops(largeN) / (cms + oms) / 1e6
	e.layer["loadgen.req_per_s"] = 2 / ((cms + oms) / 1e3)
	e.e2e["p50_ms"] = median(cycles)
	e.info["latency_unit"] = "one cycle: a cluster transform, then an out-of-core file transform"
	e.info["latency_samples"] = len(cycles)

	dd := func(name string) float64 { return dist1[name] - dist0[name] }
	od := func(name string) float64 { return (ooc1[name] - ooc0[name]) / float64(len(oocMs)) }
	e.layer["dist.transform_ms"] = cms
	e.layer["dist.rpc_ms_mean"] = 1e3 * ratio(dd("dist_rpc_seconds_sum"), dd("dist_rpc_seconds_count"))
	e.layer["dist.rpcs_per_transform"] = ratio(dd("dist_rpc_attempts_total"), dd("dist_transforms_total"))
	e.layer["dist.wire_bytes_per_elem"] = ratio(dd("dist_resident_bytes_total"), dd("dist_resident_elems_total"))
	e.layer["dist.retries"] = dist1["dist_retries_total"]
	e.layer["dist.degraded"] = dist1["dist_degraded_total"]
	e.layer["dist.resident_fallback"] = dist1["dist_resident_fallback_total"]
	e.layer["ooc.transform_ms"] = oms
	e.layer["ooc.cols_ms"] = od("ooc_phase_cols_ns_total") / 1e6
	e.layer["ooc.rows_ms"] = od("ooc_phase_rows_ns_total") / 1e6
	e.layer["ooc.stall_ms"] = od("ooc_pool_stall_ns_total") / 1e6
	e.layer["ooc.spill_bytes"] = od("ooc_phase_cols_write_bytes_total")
	e.info["ooc_plan"] = op.String()
	e.info["array_mib"] = largeN * 16 >> 20
	// Each loopback worker runs its 2048-point rows and columns on a
	// one-goroutine engine; the tuner memo holds what they resolved to.
	wp, err := codeletfft.CachedHostPlan(2048, codeletfft.WithWorkers(1))
	if err != nil {
		return err
	}
	kernels := map[string]string{"worker n2048": fmt.Sprintf("%s/%s", wp.Algorithm(), wp.Kernel())}
	e.info["kernels"] = kernels

	if e.tr == nil {
		return nil
	}
	// The in-core baseline both overheads are measured against.
	p, err := codeletfft.CachedHostPlan(largeN)
	if err != nil {
		return err
	}
	var incore []float64
	for r := 0; r < 4; r++ {
		copy(buf, x)
		sp := e.tr.start("engine.transform "+largeShape, 0)
		t := time.Now()
		if err := p.Transform(buf); err != nil {
			return err
		}
		incore = append(incore, msSince(t))
		sp.end()
		e.check("incore", c.verify(buf))
	}
	base := median(incore[1:]) // the first call pays the tuner's race
	e.layer["incore.ms."+largeShape] = base
	e.layer["dist.overhead_ms"] = cms - base
	e.layer["ooc.overhead_ms"] = oms - base
	kernels[largeShape] = fmt.Sprintf("%s/%s", p.Algorithm(), p.Kernel())
	return nil
}

// writeC128 stores v as flat little-endian complex128, the layout
// TransformFile reads.
func writeC128(path string, v []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b [16]byte
	for _, z := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(z)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(z)))
		if _, err := w.Write(b[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readC128 loads a flat little-endian complex128 file of exactly len(v)
// elements into v.
func readC128(path string, v []complex128) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var b [16]byte
	for i := range v {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return fmt.Errorf("%s: element %d: %w", path, i, err)
		}
		v[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(b[:8])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
	}
	if n, _ := r.Read(b[:1]); n != 0 {
		return fmt.Errorf("%s holds more than %d elements", path, len(v))
	}
	return nil
}
