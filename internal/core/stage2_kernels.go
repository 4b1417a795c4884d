package core

import (
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// kernel is a Stage 2 join algorithm over one round of a reduce group.
// Build items are buffered or indexed; probe items are joined against
// the build side as they stream. A self-join kernel also joins the
// build side with itself, reporting each pair once under the RID-order
// guard: streaming kernels probe each build item before inserting it,
// buffering kernels pair the whole side in flush.
type kernel interface {
	add(it ppjoin.Item, emit func(records.RIDPair))
	// flush closes the build side. The reducer calls it once per round:
	// before the first probe or, in a self-join, at the round's end.
	flush(emit func(records.RIDPair))
	probe(it ppjoin.Item, emit func(records.RIDPair))
	// bytes is the live footprint the reducer charges to the task's
	// memory budget.
	bytes() int64
	// count adds the kernel's work counters to the task's.
	count(ctx *mapreduce.Context)
}

// newKernel starts a kernel for one round. owner is FVT's emit-once
// hook for the round's reduce group; builds sizes the buffering
// kernels' build side when the reducer knows it.
func newKernel(cfg *Config, self bool, owner func(uint32) bool, builds int) kernel {
	switch cfg.Kernel {
	case PK:
		return &pkKernel{self: self, ix: ppjoin.NewIndex(kernelOptions(cfg))}
	case FVT:
		return &fvtKernel{self: self, incremental: cfg.FVTIncremental, items: make([]ppjoin.Item, 0, builds),
			tree: fvt.New(fvt.Options{Fn: cfg.Fn, Threshold: cfg.Threshold, Filters: *cfg.Filters,
				Bitmap: cfg.BitmapFilter, Owner: owner})}
	}
	return &bkKernel{self: self, opts: kernelOptions(cfg), items: make([]ppjoin.Item, 0, builds)}
}

func kernelOptions(cfg *Config) ppjoin.Options {
	return ppjoin.Options{Fn: cfg.Fn, Threshold: cfg.Threshold, Filters: *cfg.Filters, Bitmap: cfg.BitmapFilter}
}

func countKernelStats(ctx *mapreduce.Context, st ppjoin.Stats) {
	ctx.Count("stage2.candidates", st.Candidates)
	// BK and PK materialize every candidate before verification; the
	// FVT kernel reports 0 here, making the shuffle-volume claim
	// measurable per cell.
	ctx.Count("stage2.candidates_materialized", st.Candidates)
	ctx.Count("stage2.bitmap_rejected", st.BitmapRejected)
	ctx.Count("stage2.verified", st.Verified)
	ctx.Count("stage2.results", st.Results)
}

// projectionBytes estimates a buffered projection's memory footprint.
func projectionBytes(it ppjoin.Item) int64 {
	return int64(24 + 4*len(it.Ranks))
}

// bkKernel buffers the build side and pairs it with a nested loop
// (§3.2.1). The whole build side must fit in the memory budget; §5
// length routing and block processing bound it.
type bkKernel struct {
	opts  ppjoin.Options
	self  bool
	items []ppjoin.Item
	size  int64
	st    ppjoin.Stats
}

func (k *bkKernel) add(it ppjoin.Item, _ func(records.RIDPair)) {
	k.items = append(k.items, it)
	k.size += projectionBytes(it)
}

func (k *bkKernel) flush(emit func(records.RIDPair)) {
	if k.self {
		k.st = addStats(k.st, ppjoin.NestedLoopSelf(k.items, k.opts, emit))
	}
}

func (k *bkKernel) probe(it ppjoin.Item, emit func(records.RIDPair)) {
	k.st = addStats(k.st, ppjoin.NestedLoopRS(k.items, []ppjoin.Item{it}, k.opts, emit))
}

func (k *bkKernel) bytes() int64                 { return k.size }
func (k *bkKernel) count(ctx *mapreduce.Context) { countKernelStats(ctx, k.st) }

func addStats(a, b ppjoin.Stats) ppjoin.Stats {
	a.Candidates += b.Candidates
	a.BitmapRejected += b.BitmapRejected
	a.Verified += b.Verified
	a.Results += b.Results
	return a
}

// pkKernel streams the build side through a PPJoin+ index (§3.2.2).
// The length-ordered keys let the index evict entries the length filter
// proves useless as the stream advances.
type pkKernel struct {
	ix   *ppjoin.Index
	self bool
}

func (k *pkKernel) add(it ppjoin.Item, emit func(records.RIDPair)) {
	if k.self {
		k.ix.Probe(it, emit)
	}
	k.ix.Add(it)
}

func (k *pkKernel) flush(func(records.RIDPair)) {}

func (k *pkKernel) probe(it ppjoin.Item, emit func(records.RIDPair)) { k.ix.Probe(it, emit) }
func (k *pkKernel) bytes() int64                                     { return k.ix.Bytes() }
func (k *pkKernel) count(ctx *mapreduce.Context)                     { countKernelStats(ctx, k.ix.Stats()) }

// fvtKernel builds a Filter-and-Verification Tree (internal/fvt) over
// the build side and verifies pairs during traversal: no candidate pair
// is ever materialized (stage2.candidates_materialized is always 0).
//
// A reduce group receives every record whose prefix holds one of its
// tokens, so a τ-pair reaches every group its shared prefix tokens route
// to and would be emitted once per shared group. The tree's Owner hook
// makes emission exact-once instead: a group only emits pairs whose
// minimal common prefix token routes to it. Both sides of such a pair
// are present there (the token is in both prefixes), and every pair has
// exactly one minimal common token, so exactly one owner group. Stage 3
// still dedups, but FVT's Stage 2 output stays duplicate-free, which is
// where its shuffle-byte reduction on skewed inputs comes from.
type fvtKernel struct {
	tree              *fvt.Tree
	self, incremental bool
	items             []ppjoin.Item // build side awaiting the tree build
	size              int64
}

func (k *fvtKernel) add(it ppjoin.Item, emit func(records.RIDPair)) {
	if k.self && k.incremental {
		// Streaming probe-then-insert in arrival order: the
		// tail-extended incremental build path the online service uses.
		k.tree.Probe(it, emit)
		k.tree.Add(it)
		return
	}
	k.items = append(k.items, it)
	k.size += projectionBytes(it)
}

func (k *fvtKernel) flush(emit func(records.RIDPair)) {
	// The bulk build inserts in deterministic (length, RID) order.
	if !k.incremental {
		fvt.SortItems(k.items)
	}
	for i := range k.items {
		k.tree.Add(k.items[i])
	}
	if k.self {
		// The RID guard yields each unordered pair exactly once.
		for i := range k.items {
			k.tree.SelfProbe(k.items[i], emit)
		}
	}
}

func (k *fvtKernel) probe(it ppjoin.Item, emit func(records.RIDPair)) { k.tree.Probe(it, emit) }

// bytes keeps the buffered items' charge through the build, so the
// round's peak covers the items and the tree built over them together.
func (k *fvtKernel) bytes() int64 { return k.size + k.tree.Bytes() }

func (k *fvtKernel) count(ctx *mapreduce.Context) {
	st := k.tree.Stats()
	ctx.Count("stage2.tree_nodes_visited", st.NodesVisited)
	ctx.Count("stage2.candidates_avoided", st.CandidatesAvoided)
	ctx.Count("stage2.bitmap_rejected", st.BitmapRejected)
	ctx.Count("stage2.verified", st.Verified)
	ctx.Count("stage2.results", st.Results)
	// Counting 0 creates the counter, so every cell's traces and metrics
	// carry it.
	ctx.Count("stage2.candidates_materialized", 0)
}
