package core

import (
	"context"
	"fmt"
	"time"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// SelfJoinContext is SelfJoin with cancellation: every MapReduce job the
// pipeline runs executes under ctx, so canceling it stops the join at
// the next task boundary with an error wrapping mapreduce.ErrCanceled.
func SelfJoinContext(ctx context.Context, cfg Config, input string) (*Result, error) {
	cfg.ctx = ctx
	return SelfJoin(cfg, input)
}

// RSJoinContext is RSJoin with cancellation (see SelfJoinContext).
func RSJoinContext(ctx context.Context, cfg Config, inputR, inputS string) (*Result, error) {
	cfg.ctx = ctx
	return RSJoin(cfg, inputR, inputS)
}

// traceFlow emits a flow-level marker (FlowStart/FlowEnd) when tracing.
func traceFlow(cfg *Config, typ trace.EventType, flow string, detail string) {
	if cfg.Trace.Enabled() {
		cfg.Trace.Emit(trace.Event{Type: typ, Flow: flow, Detail: detail})
	}
}

// traceStage emits a stage-level marker (StageStart/StageEnd).
func traceStage(cfg *Config, typ trace.EventType, stage int, alg string) {
	if cfg.Trace.Enabled() {
		cfg.Trace.Emit(trace.Event{Type: typ, Stage: stage, Detail: alg})
	}
}

// SelfJoin runs the end-to-end set-similarity self-join of the records in
// input (a Text-format DFS file, one record line per row): Stage 1 orders
// the tokens, Stage 2 generates similar-RID pairs, Stage 3 rebuilds full
// record pairs. The final output is Result.Output (Text part files of
// records.JoinedPair lines).
func SelfJoin(cfg Config, input string) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if !cfg.FS.Exists(input) {
		return nil, fmt.Errorf("core: input %q does not exist", input)
	}
	res := &Result{}
	traceFlow(&cfg, trace.FlowStart, "self-join", cfg.Combo())

	start := time.Now()
	traceStage(&cfg, trace.StageStart, 1, cfg.TokenOrder.String())
	tokenFile, m1, err := runStage1(&cfg, input, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 1 (%s): %w", cfg.TokenOrder, err)
	}
	traceStage(&cfg, trace.StageEnd, 1, cfg.TokenOrder.String())
	res.TokenOrderFile = tokenFile
	res.Stages[0] = StageMetrics{Stage: 1, Alg: cfg.TokenOrder.String(), Jobs: m1, Wall: time.Since(start)}

	start = time.Now()
	traceStage(&cfg, trace.StageStart, 2, cfg.Kernel.String())
	pairs, m2, err := runStage2(&cfg, []string{input}, tokenFile, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 2 (%s): %w", cfg.Kernel, err)
	}
	traceStage(&cfg, trace.StageEnd, 2, cfg.Kernel.String())
	res.RIDPairs = pairs
	res.Stages[1] = StageMetrics{Stage: 2, Alg: cfg.Kernel.String(), Jobs: m2, Wall: time.Since(start)}

	start = time.Now()
	traceStage(&cfg, trace.StageStart, 3, cfg.RecordJoin.String())
	out, m3, err := runStage3(&cfg, []string{input}, "", false, pairs, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 3 (%s): %w", cfg.RecordJoin, err)
	}
	traceStage(&cfg, trace.StageEnd, 3, cfg.RecordJoin.String())
	res.Output = out
	res.Stages[2] = StageMetrics{Stage: 3, Alg: cfg.RecordJoin.String(), Jobs: m3, Wall: time.Since(start)}
	res.Pairs = stagePairCount(m3)
	traceFlow(&cfg, trace.FlowEnd, "self-join", cfg.Combo())
	res.Trace = cfg.Trace.Snapshot()
	return res, nil
}

// RSJoin runs the end-to-end set-similarity R-S join of two record files.
// Per §4, Stage 1 builds the token ordering from R only, so pass the
// smaller relation as inputR (the paper uses DBLP against CITESEERX).
// Joined pairs carry the R record on the left.
func RSJoin(cfg Config, inputR, inputS string) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	for _, in := range []string{inputR, inputS} {
		if !cfg.FS.Exists(in) {
			return nil, fmt.Errorf("core: input %q does not exist", in)
		}
	}
	if inputR == inputS {
		return nil, fmt.Errorf("core: R-S join requires distinct inputs; use SelfJoin for %q", inputR)
	}
	res := &Result{}
	traceFlow(&cfg, trace.FlowStart, "rs-join", cfg.Combo())

	start := time.Now()
	traceStage(&cfg, trace.StageStart, 1, cfg.TokenOrder.String())
	tokenFile, m1, err := runStage1(&cfg, inputR, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 1 (%s): %w", cfg.TokenOrder, err)
	}
	traceStage(&cfg, trace.StageEnd, 1, cfg.TokenOrder.String())
	res.TokenOrderFile = tokenFile
	res.Stages[0] = StageMetrics{Stage: 1, Alg: cfg.TokenOrder.String(), Jobs: m1, Wall: time.Since(start)}

	start = time.Now()
	traceStage(&cfg, trace.StageStart, 2, cfg.Kernel.String())
	pairs, m2, err := runStage2(&cfg, []string{inputR, inputS}, tokenFile, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 2 (%s): %w", cfg.Kernel, err)
	}
	traceStage(&cfg, trace.StageEnd, 2, cfg.Kernel.String())
	res.RIDPairs = pairs
	res.Stages[1] = StageMetrics{Stage: 2, Alg: cfg.Kernel.String(), Jobs: m2, Wall: time.Since(start)}

	start = time.Now()
	traceStage(&cfg, trace.StageStart, 3, cfg.RecordJoin.String())
	out, m3, err := runStage3(&cfg, []string{inputR, inputS}, inputR, true, pairs, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 3 (%s): %w", cfg.RecordJoin, err)
	}
	traceStage(&cfg, trace.StageEnd, 3, cfg.RecordJoin.String())
	res.Output = out
	res.Stages[2] = StageMetrics{Stage: 3, Alg: cfg.RecordJoin.String(), Jobs: m3, Wall: time.Since(start)}
	res.Pairs = stagePairCount(m3)
	traceFlow(&cfg, trace.FlowEnd, "rs-join", cfg.Combo())
	res.Trace = cfg.Trace.Snapshot()
	return res, nil
}

// Stage1 runs only the token-ordering stage (the experiment harness
// measures stages independently). It returns the token-order file.
func Stage1(cfg Config, input string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	return runStage1(&cfg, input, cfg.Work)
}

// Stage2Self runs only the self-join kernel stage against an existing
// token-order file. It returns the RID-pair output prefix.
func Stage2Self(cfg Config, input, tokenFile string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	return runStage2(&cfg, []string{input}, tokenFile, cfg.Work)
}

// Stage2RS runs only the R-S kernel stage.
func Stage2RS(cfg Config, inputR, inputS, tokenFile string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	return runStage2(&cfg, []string{inputR, inputS}, tokenFile, cfg.Work)
}

// Stage3Self runs only the self-join record-join stage against an
// existing RID-pair prefix. It returns the final output prefix.
func Stage3Self(cfg Config, input, pairsPrefix string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	return runStage3(&cfg, []string{input}, "", false, pairsPrefix, cfg.Work)
}

// Stage3RS runs only the R-S record-join stage.
func Stage3RS(cfg Config, inputR, inputS, pairsPrefix string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	return runStage3(&cfg, []string{inputR, inputS}, inputR, true, pairsPrefix, cfg.Work)
}

func stagePairCount(ms []*mapreduce.Metrics) int64 {
	if len(ms) == 0 {
		return 0
	}
	return ms[len(ms)-1].Counters["stage3.pairs"]
}

// AllJobs flattens a result's per-stage metrics in execution order (the
// cluster simulator consumes this).
func (r *Result) AllJobs() []*mapreduce.Metrics {
	var out []*mapreduce.Metrics
	for _, s := range r.Stages {
		out = append(out, s.Jobs...)
	}
	return out
}
