// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public entry points (fuzzyjoin.Join,
// fuzzyjoin.NewIndex, distrib.Start), checks every output against the
// exact oracle, and prints host wall-clock metrics as one JSON object on
// the last line of standard output.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload self-dblp --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes the recorded spans to .bench_build/.
// See e2ebench/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fuzzyjoin/internal/distrib"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// outDir receives the traced run's span file and the oracle cache.
	outDir string
	// corrupt damages one checked output before it is compared with
	// the oracle; the self-test uses it to prove the gate trips.
	corrupt bool
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// Forked self-dist workers re-execute this binary; this call turns
	// such a child into a worker and never returns in it.
	distrib.MaybeWorker()

	var (
		o     = options{sizes: fullSizes, outDir: ".bench_build"}
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1

	res, ctx, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d operations failed or returned a wrong result\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// run executes one invocation and assembles its result line and run
// context.
func run(o options) (*result, *runContext, error) {
	runWorkload, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown --workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	ctx := newRunContext(o)
	out, err := runWorkload(o, ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := &result{
		Correct:   out.tally.failed == 0 && out.tally.attempted > 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := out.values[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	ctx.FirstFailure = out.tally.first
	return res, ctx, nil
}

// tally counts operations attempted and failed (an error or a result
// that differs from the oracle).
type tally struct {
	attempted, failed int
	first             string
}

// record counts one operation; a non-empty problem marks it failed.
func (t *tally) record(problem string) {
	t.attempted++
	if problem == "" {
		return
	}
	t.failed++
	if t.first == "" {
		t.first = problem
	}
	fmt.Fprintln(os.Stderr, "e2ebench: failed operation:", problem)
}

// outcome is what a workload run measured.
type outcome struct {
	tally  tally
	values map[string]float64
}
