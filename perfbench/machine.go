package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// llcMiB returns the last-level cache size lscpu reports, or 0 when
// lscpu is missing or silent.
func llcMiB() float64 {
	out, err := exec.Command("lscpu", "-B").Output()
	if err != nil {
		return 0
	}
	var best float64
	for _, line := range strings.Split(string(out), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || !strings.HasPrefix(strings.TrimSpace(name), "L") || !strings.Contains(name, "cache") {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		if b, err := strconv.ParseFloat(f[0], 64); err == nil && b/(1<<20) > best {
			best = b / (1 << 20)
		}
	}
	return best
}

// triadArrayMiB is the size of each of the triad probe's three arrays.
// STREAM asks for arrays of at least 4x the last-level cache; with the
// 300 MiB L3 lscpu reports that is 3.6 GiB across the three arrays, more
// than a shared 8 GiB machine should give one probe, so the probe runs
// smaller arrays and the engine's bandwidth is reported as computed
// bytes per second without a ratio to it.
const triadArrayMiB = 64

// triadGBps runs the STREAM triad a[i] = b[i] + s·c[i] over three
// float64 arrays of triadArrayMiB each, split across GOMAXPROCS
// goroutines, and returns the best of several passes in GB/s, counting
// 24 bytes per element.
func triadGBps() float64 {
	n := triadArrayMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	best := time.Duration(1 << 62)
	for pass := 0; pass < 6; pass++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if a[0] != 7 || a[n-1] != 7 {
		return 0
	}
	return 24 * float64(n) / best.Seconds() / 1e9
}
