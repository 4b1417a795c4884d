package core

import (
	"encoding/json"
	"fmt"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
)

// This file makes every pipeline job's task bodies reconstructible in
// another process. A job's function-valued fields (mapper, reducer,
// partitioner, comparators) cannot travel over RPC, so each job instead
// carries a program name ("core") plus a JSON progSpec, and both the
// coordinator and the worker build the bodies through the one
// registered builder. The coordinator-side job constructors use the
// same programFor the worker does, so in-process and distributed
// execution run literally the same task code — the conformance
// harness's byte-identity guarantee rests on that.

// CoreProgram is the program name the pipeline registers with the
// engine; worker binaries that import this package can rebuild any
// pipeline job from its JobSpec.
const CoreProgram = "core"

func init() {
	mapreduce.RegisterProgram(CoreProgram, buildCoreProgram)
}

// tokSpec serializes the stock tokenizers. A Config carrying any other
// Tokenizer implementation still runs in-process but cannot be
// dispatched to workers (its job gets no Program).
type tokSpec struct {
	Kind     string `json:"kind"`
	KeepCase bool   `json:"keep_case,omitempty"`
	Q        int    `json:"q,omitempty"`
	NoPad    bool   `json:"no_pad,omitempty"`
}

func tokSpecOf(t tokenize.Tokenizer) (tokSpec, bool) {
	switch tk := t.(type) {
	case tokenize.Word:
		return tokSpec{Kind: "word", KeepCase: tk.KeepCase}, true
	case tokenize.QGram:
		return tokSpec{Kind: "qgram", Q: tk.Q, NoPad: tk.NoPad}, true
	}
	return tokSpec{}, false
}

func (ts tokSpec) tokenizer() (tokenize.Tokenizer, error) {
	switch ts.Kind {
	case "word":
		return tokenize.Word{KeepCase: ts.KeepCase}, nil
	case "qgram":
		return tokenize.QGram{Q: ts.Q, NoPad: ts.NoPad}, nil
	}
	return nil, fmt.Errorf("core: unknown tokenizer kind %q", ts.Kind)
}

// cfgSpec serializes the Config fields task bodies actually read.
// Engine-policy fields (memory limit, retries, tracing) travel in the
// JobSpec instead and never reach the worker-side Config.
type cfgSpec struct {
	Tokenizer     tokSpec      `json:"tok"`
	JoinFields    []int        `json:"join_fields,omitempty"`
	Fn            int          `json:"fn"`
	Threshold     float64      `json:"threshold"`
	Filters       filter.Stack `json:"filters"`
	BitmapFilter  bool         `json:"bitmap,omitempty"`
	Kernel        int          `json:"kernel"`
	FVTIncr       bool         `json:"fvt_incr,omitempty"`
	Routing       int          `json:"routing"`
	NumGroups     int          `json:"num_groups,omitempty"`
	BlockMode     int          `json:"block_mode,omitempty"`
	NumBlocks     int          `json:"num_blocks,omitempty"`
	LengthBucket  int          `json:"length_bucket,omitempty"`
	LengthRouting bool         `json:"length_routing,omitempty"`
	SplitK        int          `json:"split_k,omitempty"`
	SplitHot      int          `json:"split_hot,omitempty"`
	NoCombiner    bool         `json:"no_combiner,omitempty"`
}

func cfgSpecOf(cfg *Config) (cfgSpec, bool) {
	ts, ok := tokSpecOf(cfg.Tokenizer)
	return cfgSpec{
		Tokenizer:     ts,
		JoinFields:    cfg.JoinFields,
		Fn:            int(cfg.Fn),
		Threshold:     cfg.Threshold,
		Filters:       *cfg.Filters,
		BitmapFilter:  cfg.BitmapFilter,
		Kernel:        int(cfg.Kernel),
		FVTIncr:       cfg.FVTIncremental,
		Routing:       int(cfg.Routing),
		NumGroups:     cfg.NumGroups,
		BlockMode:     int(cfg.BlockMode),
		NumBlocks:     cfg.NumBlocks,
		LengthBucket:  cfg.LengthBucket,
		LengthRouting: cfg.LengthRouting,
		SplitK:        cfg.SplitK,
		SplitHot:      cfg.SplitHotCount,
		NoCombiner:    cfg.NoCombiner,
	}, ok
}

func (cs cfgSpec) config() (*Config, error) {
	tok, err := cs.Tokenizer.tokenizer()
	if err != nil {
		return nil, err
	}
	filters := cs.Filters
	return &Config{
		Tokenizer:      tok,
		JoinFields:     cs.JoinFields,
		Fn:             simfn.Func(cs.Fn),
		Threshold:      cs.Threshold,
		Filters:        &filters,
		BitmapFilter:   cs.BitmapFilter,
		Kernel:         KernelAlg(cs.Kernel),
		FVTIncremental: cs.FVTIncr,
		Routing:        Routing(cs.Routing),
		NumGroups:      cs.NumGroups,
		BlockMode:      BlockMode(cs.BlockMode),
		NumBlocks:      cs.NumBlocks,
		LengthBucket:   cs.LengthBucket,
		LengthRouting:  cs.LengthRouting,
		SplitK:         cs.SplitK,
		SplitHotCount:  cs.SplitHot,
		NoCombiner:     cs.NoCombiner,
	}, nil
}

// progSpec identifies one job's task bodies: the kind selects the
// mapper/reducer pair and the remaining fields carry the per-job
// parameters (side-file names, and the R input file that tells R
// records from S records).
type progSpec struct {
	Kind string  `json:"kind"`
	Cfg  cfgSpec `json:"cfg"`

	TokenFile   string   `json:"token_file,omitempty"`
	InputR      string   `json:"input_r,omitempty"`
	RS          bool     `json:"rs,omitempty"`
	PairsPrefix string   `json:"pairs_prefix,omitempty"`
	PairFiles   []string `json:"pair_files,omitempty"`
}

func buildCoreProgram(spec string) (*mapreduce.Program, error) {
	var ps progSpec
	if err := json.Unmarshal([]byte(spec), &ps); err != nil {
		return nil, fmt.Errorf("core: decoding program spec: %w", err)
	}
	cfg, err := ps.Cfg.config()
	if err != nil {
		return nil, err
	}
	return programFor(cfg, ps)
}

// relOfFor rebuilds the relation-tag closure: self-joins tag everything
// R; R-S joins tag by comparison against the R input file name.
func relOfFor(ps progSpec) func(string) byte {
	if !ps.RS {
		return func(string) byte { return relR }
	}
	inputR := ps.InputR
	return func(file string) byte {
		if file == inputR {
			return relR
		}
		return relS
	}
}

// programFor constructs one job's task bodies from a live Config and
// the job parameters. It is the single construction path: the
// coordinator calls it with its own Config (which may hold a custom,
// unserializable tokenizer); the worker calls it through
// buildCoreProgram with a Config rebuilt from the spec.
func programFor(cfg *Config, ps progSpec) (*mapreduce.Program, error) {
	p := &mapreduce.Program{SortPrefix: stageKeySortPrefix}
	switch ps.Kind {
	case "s1-bto-count":
		p.Mapper = &tokenCountMapper{cfg: cfg}
		p.Combiner = stage1Combiner(cfg)
		p.Reducer = sumCombiner
	case "s1-bto-sort":
		p.Mapper = countSwapMapper
		p.Reducer = emitTokenReducer
	case "s1-opto":
		p.Mapper = &tokenCountMapper{cfg: cfg}
		p.Combiner = stage1Combiner(cfg)
		p.Reducer = &optoReducer{}
	case "s2":
		ks := newKeyScheme(cfg, !ps.RS)
		p.Mapper = &stage2Mapper{cfg: cfg, tokenFile: ps.TokenFile, inputR: ps.InputR, keys: ks}
		p.Reducer = &stage2Reducer{cfg: cfg, tokenFile: ps.TokenFile, keys: ks}
		p.Partitioner = mapreduce.PrefixPartitioner(ks.groupLen())
		p.GroupComparator = keys.PrefixComparator(ks.groupLen())
	case "s3-brj1":
		p.Mapper = &brjPhase1Mapper{pairsPrefix: ps.PairsPrefix, relOf: relOfFor(ps), rs: ps.RS}
		p.Reducer = &brjPhase1Reducer{rs: ps.RS}
	case "s3-brj2":
		p.Mapper = mapreduce.IdentityMapper
		p.Reducer = pairAssembleReducer{}
	case "s3-oprj":
		p.Mapper = &oprjMapper{pairFiles: ps.PairFiles, relOf: relOfFor(ps), rs: ps.RS}
		p.Reducer = pairAssembleReducer{}
	case "ss-carry":
		p.Mapper = &carryRecordsMapper{cfg: cfg, tokenFile: ps.TokenFile}
		p.Reducer = &carryRecordsReducer{cfg: cfg}
	case "ss-dedup":
		p.Mapper = mapreduce.IdentityMapper
		p.Reducer = dedupFirstReducer
	case "s2-split-dedup":
		p.Mapper = mapreduce.IdentityMapper
		p.Reducer = s2SplitDedupReducer
	default:
		return nil, fmt.Errorf("core: unknown program kind %q", ps.Kind)
	}
	return p, nil
}

// coreJob assembles the engine half of one pipeline job around a
// program spec: task bodies from programFor, engine policy copied from
// the Config. When the Config is fully serializable the job carries
// Program/ProgramSpec and is eligible for dispatch to worker processes;
// otherwise it runs in-process only.
func coreJob(cfg *Config, ps progSpec) (mapreduce.Job, error) {
	cs, serializable := cfgSpecOf(cfg)
	ps.Cfg = cs
	prog, err := programFor(cfg, ps)
	if err != nil {
		return mapreduce.Job{}, err
	}
	job := mapreduce.Job{
		FS:              cfg.FS,
		Mapper:          prog.Mapper,
		Combiner:        prog.Combiner,
		Reducer:         prog.Reducer,
		Partitioner:     prog.Partitioner,
		SortComparator:  prog.SortComparator,
		SortPrefix:      prog.SortPrefix,
		GroupComparator: prog.GroupComparator,
		NumReducers:     cfg.NumReducers,
		MemoryLimit:     cfg.MemoryLimit,
		Parallelism:     cfg.Parallelism,
		CompressShuffle: cfg.CompressShuffle,
		SpillPairs:      cfg.SpillPairs,
		Retry:           cfg.Retry,
		FaultInjector:   cfg.FaultInjector,
		NodeFailures:    cfg.NodeFailures,
		Speculative:     cfg.Speculative,
		Trace:           cfg.Trace,
		Runner:          cfg.Runner,
	}
	if serializable {
		data, err := json.Marshal(ps)
		if err != nil {
			return mapreduce.Job{}, err
		}
		job.Program = CoreProgram
		job.ProgramSpec = string(data)
	}
	return job, nil
}
