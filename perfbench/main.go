// Command perfbench is the repository benchmark. One invocation runs one
// named workload in a fresh process, checks every output the program
// produces against precomputed references, and prints the metrics
// BENCHMARK.json names as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 7 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every public call and prints the
// per-layer metrics instead. README.md in this directory describes the
// workloads and what each metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"codeletfft"
)

// workloads maps each name BENCHMARK.json lists to the function that runs it.
var workloads = map[string]func(*env) error{
	"serve-mixed": serveMixed,
	"host-large":  hostLarge,
	"cluster-ooc": clusterOOC,
}

// setupSamples is how many fresh processes measure setup_s per run (the
// run itself plus setupSamples-1 children); the median is reported.
var setupSamples = map[string]int{
	"serve-mixed": 5,
	"host-large":  3,
	"cluster-ooc": 3,
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	spec      string
	workdir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload reads its settings from and reports into.
type env struct {
	opt  options
	tr   *tracer // nil unless --trace 1
	dir  string  // per-run scratch directory inside the checkout
	info map[string]any

	clock stopwatch // process start to the end of the cold phase, minus input generation

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed, wrong int64
}

func main() {
	start := time.Now()
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name (serve-mixed, host-large, cluster-ooc)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run (set-up excluded)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.BoolVar(&opt.setupOnly, "setup-only", false, "run only the cold phase and print its setup time (used for setup_s samples)")
	flag.StringVar(&opt.spec, "spec", "BENCHMARK.json", "benchmark definition naming every metric and its unit")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for spill files and traces")
	flag.Parse()
	opt.trace = trace == 1

	if err := run(opt, start); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options, start time.Time) error {
	drive, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	spec, err := loadSpec(opt.spec)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		opt: opt, dir: dir,
		info:  map[string]any{},
		clock: stopwatch{start: start},
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	if opt.trace {
		e.tr = newTracer()
	}
	e.clock.exclude(func() { err = selfCheck() })
	if err != nil {
		return fmt.Errorf("verifier self-check: %w", err)
	}
	if err := drive(e); err != nil {
		return err
	}
	if opt.setupOnly {
		fmt.Printf("{\"setup_s\": %v}\n", e.e2e["setup_s"])
		return nil
	}
	if e.wrong > 0 {
		return printResult(e, spec, false)
	}

	if opt.trace {
		path := filepath.Join(opt.workdir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
		n, err := e.tr.write(path)
		if err != nil {
			return err
		}
		e.layer["trace.spans"] = float64(n)
		e.layer["trace.p50_ms"] = e.e2e["p50_ms"]
		e.layer["trace.span_ns"] = spanCostNs()
		e.info["trace_file"] = path
	} else {
		samples := []float64{e.e2e["setup_s"]}
		for i := 1; i < setupSamples[opt.workload]; i++ {
			s, err := setupChild(opt)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		e.e2e["setup_s"] = median(samples)
		e.info["setup_s_samples"] = samples
	}
	e.e2e["peak_rss_mb"] = peakRSSMiB()
	e.e2e["ok_ratio"] = ratio(float64(e.attempted-e.failed), float64(e.attempted))
	return printResult(e, spec, true)
}

// printResult writes the run record (seed, GOMAXPROCS, SIMD backend,
// resolved kernels, sample counts) and then the result line, filling in
// the metric set --trace selects from the benchmark definition. A
// per-layer metric of a layer this workload does not exercise reads 0;
// an end-to-end metric the workload failed to produce is an error.
func printResult(e *env, spec *benchSpec, correct bool) error {
	e.info["workload"] = e.opt.workload
	e.info["seed"] = e.opt.seed
	e.info["seconds"] = e.opt.seconds
	e.info["trace"] = e.opt.trace
	e.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	e.info["acceleration"] = codeletfft.Acceleration()
	e.info["go"] = runtime.Version()
	if b, err := json.Marshal(map[string]any{"info": e.info}); err == nil {
		fmt.Println(string(b))
	}

	res := result{Correct: correct, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return errors.New("workload attempted no operation")
	}
	want, have := spec.EndToEnd, e.e2e
	if e.opt.trace {
		want, have = spec.PerLayer, e.layer
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		v, ok := have[m.Name]
		if !ok && !e.opt.trace && correct {
			return fmt.Errorf("workload produced no %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range have {
		if !names[name] {
			return fmt.Errorf("metric %s is not defined in the benchmark definition", name)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return fmt.Errorf("%d outputs failed verification", e.wrong)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// setupChild measures one more setup_s sample in a fresh process, so
// the plan cache and the tuner memo start empty as they did for the
// run's own set-up.
func setupChild(opt options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe,
		"--workload", opt.workload, "--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--spec", opt.spec, "--workdir", opt.workdir, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var r struct {
		SetupS float64 `json:"setup_s"`
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.SetupS <= 0 {
		return 0, fmt.Errorf("setup child printed %q", last)
	}
	return r.SetupS, nil
}

// stopwatch measures set-up time from process start while excluding the
// intervals spent generating inputs and references.
type stopwatch struct {
	start    time.Time
	excluded time.Duration
}

// exclude runs f without counting its duration.
func (s *stopwatch) exclude(f func()) {
	t := time.Now()
	f()
	s.excluded += time.Since(t)
}

func (s *stopwatch) seconds() float64 {
	return (time.Since(s.start) - s.excluded).Seconds()
}

// check records one verified output: a mismatch counts as wrong and
// failed, and is printed to standard error.
func (e *env) check(what string, err error) {
	e.attempted++
	if err != nil {
		e.wrong++
		e.failed++
		fmt.Fprintf(os.Stderr, "perfbench: wrong output from %s: %v\n", what, err)
	}
}

// median returns the middle of xs (mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio returns a/b, or 0 when nothing was counted (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fftFlops is the paper's operation count for one n-point complex
// transform, 5·n·log2(n).
func fftFlops(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return msOf(time.Since(t)) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
