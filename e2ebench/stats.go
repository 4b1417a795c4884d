package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// warmup is how long a run warms up before measuring: the first joins
// in a process pay page faults and heap growth, and an idle virtual
// machine takes about a second to come up to speed.
func warmup(seconds float64) float64 { return seconds / 5 }

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func mib(b int64) float64          { return float64(b) / (1 << 20) }
func secs(d time.Duration) float64 { return d.Seconds() }

// resetPeakRSS resets the process's peak resident set size (VmHWM) to
// its current resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak resident set size: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set size in MiB since the
// last resetPeakRSS.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak resident set size: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return float64(kib) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks is a reading of the host's CPU time counters in /proc/stat.
type cpuTicks struct{ steal, total int64 }

// readCPUTicks reads the counters; ok is false when they are not
// available.
func readCPUTicks() (t cpuTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// stealSince returns the share of CPU time the hypervisor gave to other
// guests since start: on a shared virtual machine it tells a run made
// while neighbours were busy from one made on a quiet host.
func stealSince(start cpuTicks, ok bool) *float64 {
	end, endOK := readCPUTicks()
	if !ok || !endOK || end.total <= start.total {
		return nil
	}
	f := float64(end.steal-start.steal) / float64(end.total-start.total)
	return &f
}

// parallel runs f(0..n-1) on at most workers goroutines and returns the
// results in index order.
func parallel[T any](n, workers int, f func(i int) T) []T {
	out := make([]T, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// hostProcs is the number of CPUs the benchmark may load: task
// goroutines, clients and worker processes all stay within it.
func hostProcs() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// capProcs bounds a requested concurrency by hostProcs.
func capProcs(want int) int {
	if n := hostProcs(); want > n {
		return n
	}
	return want
}

// runContext records what a run measured on, printed on the line
// before the result.
type runContext struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        bool           `json:"trace"`
	GoVersion    string         `json:"go_version"`
	GOOS         string         `json:"goos"`
	GOARCH       string         `json:"goarch"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Corpus       map[string]int `json:"corpus"`
	Pairs        int            `json:"pairs"`
	OracleCached bool           `json:"oracle_cached,omitempty"`
	OpSamples    int            `json:"op_samples"`
	SetupSamples int            `json:"setup_samples"`
	StealFrac    *float64       `json:"steal_frac,omitempty"`
	Config       string         `json:"config"`
	FirstFailure string         `json:"first_failure,omitempty"`
}

func newRunContext(o options) *runContext {
	c := &runContext{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Corpus:     map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c.Commit = s.Value
			}
		}
	}
	c.SourceSHA256 = sourceDigest(".")
	return c
}

// sourceDigest hashes the Go sources and module files under root, so a
// run made outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
