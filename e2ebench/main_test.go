package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/distrib"
)

// TestMain lets the self-dist runs fork this test binary as their
// worker.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.2, trace: trace, sizes: tinySizes, outDir: t.TempDir()}
}

// TestBenchmarkFileMatches holds BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
		}
	}
	check := func(kind string, got []fileMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, benchmark prints %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at tiny size,
// untraced and traced, and checks the result line: correct, and every
// metric present with its unit; end-to-end values are never 0.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(tinyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			// Priming and the Add limit put exactly one drift re-order
			// in the measured window.
			if r := res.Metrics["ssjserve.reorders"].Value; trace && name == "serve-mixed" && r != 1 {
				t.Errorf("serve-mixed: %v drift re-orders in the measured window, want 1", r)
			}
			// Task-attempt spans fit inside the stage walls: Σ spans ≤
			// Σ walls × Parallelism, the rest being idle slot time.
			if idle := res.Metrics["mapreduce.slot_idle_frac"].Value; trace && name != "serve-mixed" && (idle < -1e-3 || idle >= 1) {
				t.Errorf("%s: slot_idle_frac %v outside [0, 1)", name, idle)
			}
		}
	}
}

// TestWorkerFiguresUseTheSameCalls checks that each Stats snapshot is
// compared with the client latencies of the latRing Match calls that
// returned last before it, and that snapshots taken before the window
// had returned latRing calls are skipped.
func TestWorkerFiguresUseTheSameCalls(t *testing.T) {
	var cl clientLog
	for i := 0; i < 2*latRing; i++ {
		// The first latRing calls take 1 ms, the rest 3 ms.
		lat := 0.001
		if i >= latRing {
			lat = 0.003
		}
		cl.match = append(cl.match, lat)
		cl.matchEnd = append(cl.matchEnd, float64(i))
	}
	snaps := []statsAt{
		{at: latRing / 2, p50: 9, p99: 9},     // skipped: too early
		{at: latRing - 1, p50: 0.5, p99: 0.9}, // the 1 ms calls
		{at: 2*latRing - 1, p50: 2, p99: 2.9}, // the 3 ms calls
		{at: 2 * latRing, p50: 2, p99: 2.9},   // the 3 ms calls
	}
	p50, p99, wait := workerFigures([]clientLog{cl}, snaps)
	if p50 != 2 || p99 != 2.9 || math.Abs(wait-1) > 1e-9 {
		t.Errorf("worker p50 %v, p99 %v, queue wait %v; want 2, 2.9, 1", p50, p99, wait)
	}
}

// TestCorruptedOutputTripsGate damages one checked output per workload
// and expects the run to report it as a failed operation.
func TestCorruptedOutputTripsGate(t *testing.T) {
	for name := range workloads {
		o := tinyOptions(t, name, false)
		o.corrupt = true
		res, _, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted output passed the gate (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}

// TestParallelOracleIsTheConformanceOracle pins the block-parallel
// oracle to conformance.OracleSelf and OracleRS.
func TestParallelOracleIsTheConformanceOracle(t *testing.T) {
	o := tinyOptions(t, "", false)
	self := selfDBLP(o)
	if d := conformance.Diff(oracle(self), conformance.OracleSelf(self.r, conformance.Params{Threshold: self.cfg.Threshold})); d != "" {
		t.Errorf("self-join oracle: %s", d)
	}
	rs := rsSkew(o)
	want := conformance.OracleRS(rs.r, rs.s, conformance.Params{Threshold: rs.cfg.Threshold})
	if len(want) == 0 {
		t.Fatal("tiny rs-skew has no pairs; the comparison would prove nothing")
	}
	if d := conformance.Diff(oracle(rs), want); d != "" {
		t.Errorf("R-S oracle: %s", d)
	}
}

// TestOracleCache checks that a second run of the same seed reads the
// oracle answer the first one cached, and that another seed misses.
func TestOracleCache(t *testing.T) {
	o := tinyOptions(t, "self-dblp", false)
	w := selfDBLP(o)
	first := newRunContext(o)
	want, err := cachedOracle(o, first, w)
	if err != nil {
		t.Fatal(err)
	}
	second := newRunContext(o)
	got, err := cachedOracle(o, second, w)
	if err != nil {
		t.Fatal(err)
	}
	if first.OracleCached || !second.OracleCached {
		t.Fatalf("cache hits: first %v, second %v; want false, true", first.OracleCached, second.OracleCached)
	}
	if d := conformance.Diff(got, want); d != "" {
		t.Errorf("cached oracle differs: %s", d)
	}
	o.seed++
	other := newRunContext(o)
	if _, err := cachedOracle(o, other, selfDBLP(o)); err != nil {
		t.Fatal(err)
	}
	if other.OracleCached {
		t.Error("another seed read the first seed's cached oracle")
	}
}
