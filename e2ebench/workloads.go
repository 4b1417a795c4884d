package main

import (
	"sort"
	"strings"

	"fuzzyjoin"
	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/ppjoin"
)

// sizes fixes how much data each workload generates. fullSizes is the
// benchmark; the self-test runs tinySizes.
type sizes struct {
	// dblpBase DBLP-like records are scaled ×dblpFactor (self-dblp) and
	// ×distFactor (self-dist) with datagen.Increase.
	dblpBase, dblpFactor, distFactor int
	// rsR DBLP-like records at Zipf 2.2 are joined with rsS
	// CiteSeer-like records, half of them derived from R.
	rsR, rsS int
	// serveCorpus records are indexed; servePool fresh records are
	// available to Add.
	serveCorpus, servePool int
	// Set-up is repeated at least setupReps times and for at least
	// setupSeconds (setup_s is the median), so that a set-up of a few
	// milliseconds still gets a steady median.
	setupReps    int
	setupSeconds float64
	// serveSample Match answers are checked against the oracle.
	serveSample int
	// Each measured serve-mixed window crosses the index's drift
	// re-order at its reorderAfter-th Add, and ends before a second.
	reorderAfter int
}

var fullSizes = sizes{
	dblpBase: 2000, dblpFactor: 10, distFactor: 5,
	rsR: 6000, rsS: 12000,
	serveCorpus: 25000, servePool: 40000,
	setupReps: 9, setupSeconds: 1, serveSample: 24, reorderAfter: 256,
}

var tinySizes = sizes{
	dblpBase: 80, dblpFactor: 3, distFactor: 2,
	rsR: 150, rsS: 300,
	serveCorpus: 400, servePool: 4000,
	setupReps: 2, serveSample: 6, reorderAfter: 8,
}

// workloads maps each workload name to its runner; README.md says why
// each was chosen.
var workloads = map[string]func(o options, c *runContext) (*outcome, error){
	"self-dblp":   func(o options, c *runContext) (*outcome, error) { return runBatch(o, c, selfDBLP(o)) },
	"rs-skew":     func(o options, c *runContext) (*outcome, error) { return runBatch(o, c, rsSkew(o)) },
	"self-dist":   func(o options, c *runContext) (*outcome, error) { return runBatch(o, c, selfDist(o)) },
	"serve-mixed": runServe,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// batchWorkload is a batch join: its inputs and its configuration.
type batchWorkload struct {
	r, s []fuzzyjoin.Record // s is nil for a self-join
	cfg  fuzzyjoin.Config   // FS, Work and Runner are set per join
	dist bool               // run on a forked RPC worker
}

// batchConfig is the BTO-PK-BRJ configuration every batch workload
// runs: two task goroutines (at most nproc) and 8 reducers.
func batchConfig(tau float64, bitmap bool) fuzzyjoin.Config {
	return fuzzyjoin.Config{
		TokenOrder:   fuzzyjoin.BTO,
		Kernel:       fuzzyjoin.PK,
		RecordJoin:   fuzzyjoin.BRJ,
		Threshold:    tau,
		BitmapFilter: bitmap,
		Parallelism:  capProcs(2),
		NumReducers:  8,
	}
}

func dblp(o options, factor int) []fuzzyjoin.Record {
	base := datagen.Generate(datagen.Spec{Records: o.sizes.dblpBase, Seed: o.seed})
	return datagen.Increase(base, factor)
}

func selfDBLP(o options) batchWorkload {
	return batchWorkload{r: dblp(o, o.sizes.dblpFactor), cfg: batchConfig(0.8, false)}
}

func selfDist(o options) batchWorkload {
	return batchWorkload{r: dblp(o, o.sizes.distFactor), cfg: batchConfig(0.8, false), dist: true}
}

// rsSkew generates R at Zipf 2.2 and S as CiteSeer-like records (with
// abstracts), half of them perturbed copies of R records. S's own
// tokens are drawn at Zipf 1.6: drawing the 150 distinct abstract words
// of a CiteSeer-like record at 2.2 costs seconds per thousand records.
func rsSkew(o options) batchWorkload {
	r := datagen.Generate(datagen.Spec{Records: o.sizes.rsR, Seed: o.seed, ZipfSkew: 2.2})
	s := datagen.GenerateOverlapping(r, datagen.Spec{
		Records: o.sizes.rsS, Seed: o.seed + 1, Style: datagen.CiteseerLike,
		ZipfSkew: 1.6, StartRID: conformance.RSRIDOffset,
	}, 0.5)
	return batchWorkload{r: r, s: s, cfg: batchConfig(0.6, true)}
}

// oracle computes the exact join result: conformance.OracleSelf or
// OracleRS, split into blocks of the pair space that run on every
// allowed CPU. Each block is the same unfiltered all-pairs verification
// over the same items, so the union equals the single-threaded oracle
// (the self-test checks this).
func oracle(w batchWorkload) []fuzzyjoin.RIDPair {
	p := conformance.Params{Threshold: w.cfg.Threshold}
	opts := ppjoin.Options{Threshold: w.cfg.Threshold}
	workers := hostProcs()
	var blocks []func() []fuzzyjoin.RIDPair
	if w.s == nil {
		chunks := chunk(conformance.Items(w.r, p), 2*workers)
		for i := range chunks {
			for j := i; j < len(chunks); j++ {
				a, b := chunks[i], chunks[j]
				if i == j {
					blocks = append(blocks, func() []fuzzyjoin.RIDPair { return ppjoin.BruteForceSelf(a, opts) })
					continue
				}
				blocks = append(blocks, func() []fuzzyjoin.RIDPair {
					out := ppjoin.BruteForceRS(a, b, opts)
					for k := range out {
						if out[k].A > out[k].B {
							out[k].A, out[k].B = out[k].B, out[k].A
						}
					}
					return out
				})
			}
		}
	} else {
		rItems, sItems := conformance.ItemsRS(w.r, w.s, p)
		for _, c := range chunk(rItems, 2*workers) {
			blocks = append(blocks, func() []fuzzyjoin.RIDPair { return ppjoin.BruteForceRS(c, sItems, opts) })
		}
	}
	var out []fuzzyjoin.RIDPair
	for _, part := range parallel(len(blocks), workers, func(i int) []fuzzyjoin.RIDPair { return blocks[i]() }) {
		out = append(out, part...)
	}
	ppjoin.SortPairs(out)
	return out
}

func chunk(items []ppjoin.Item, n int) [][]ppjoin.Item {
	var out [][]ppjoin.Item
	size := (len(items) + n - 1) / n
	if size == 0 {
		size = 1
	}
	for lo := 0; lo < len(items); lo += size {
		hi := lo + size
		if hi > len(items) {
			hi = len(items)
		}
		out = append(out, items[lo:hi])
	}
	return out
}
