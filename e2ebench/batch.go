package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"fuzzyjoin"
	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/distrib"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/tokenize"
)

// minJoins is the fewest joins a measured phase runs, however short
// --seconds is.
const minJoins = 3

// batchRun is one batch workload's state: its loaded DFS, the oracle
// answer, and the operations counted so far.
type batchRun struct {
	o     options
	w     batchWorkload
	fs    *fuzzyjoin.FS
	want  []fuzzyjoin.RIDPair
	tally *tally
	joins int
	err   error
}

// runBatch measures a batch workload. Set-up loads the inputs into a
// fresh DFS (and on self-dist forks and registers the worker); each
// join then runs over the loaded input and is checked against the
// oracle, untimed, before the next one starts.
func runBatch(o options, c *runContext, w batchWorkload) (*outcome, error) {
	c.Corpus["r"] = len(w.r)
	if w.s != nil {
		c.Corpus["s"] = len(w.s)
	}
	c.Config = fmt.Sprintf("%s tau=%v bitmap=%v parallelism=%d reducers=%d rpc=%v",
		w.cfg.Combo(), w.cfg.Threshold, w.cfg.BitmapFilter, w.cfg.Parallelism, w.cfg.NumReducers, w.dist)
	want, err := cachedOracle(o, c, w)
	if err != nil {
		return nil, err
	}
	c.Pairs = len(want)

	out := &outcome{values: map[string]float64{}}
	b := &batchRun{o: o, w: w, want: want, tally: &out.tally}

	var (
		setup []float64
		sess  *distrib.Session
	)
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	for begin := time.Now(); len(setup) < o.sizes.setupReps || time.Since(begin).Seconds() < o.sizes.setupSeconds; {
		if sess != nil {
			sess.Close()
			sess = nil
		}
		runtime.GC()
		start := time.Now()
		fs, err := load(w)
		if err != nil {
			return nil, err
		}
		if w.dist {
			if sess, err = distrib.Start(distrib.Options{Workers: capProcs(1)}); err != nil {
				return nil, err
			}
		}
		setup = append(setup, secs(time.Since(start)))
		b.fs = fs
	}
	c.SetupSamples = len(setup)
	var runner mapreduce.TaskRunner
	if sess != nil {
		runner = sess.Runner
	}

	// Return the oracle's garbage to the OS, then warm up with checked,
	// untimed joins.
	debug.FreeOSMemory()
	b.repeat(runner, warmup(o.seconds))

	var lat, peaks []float64
	ticks, ticksOK := readCPUTicks()
	for _, j := range b.repeat(runner, o.seconds) {
		lat = append(lat, secs(j.d))
		peaks = append(peaks, j.peakMiB)
	}
	c.StealFrac = stealSince(ticks, ticksOK)
	if b.err != nil {
		return nil, b.err
	}
	c.OpSamples = len(lat)
	if !o.trace {
		out.values["op_p50_ms"] = 1000 * median(lat)
		// Joins completed per second of Join time. Joins run one at a
		// time, so this is the reciprocal of the mean join: unlike the
		// median, it counts every slow join.
		out.values["ops_per_s"] = ratio(1, mean(lat))
		out.values["peak_rss_mib"] = median(peaks)
		out.values["setup_s"] = median(setup)
		return out, nil
	}
	layers, err := b.traced(runner, median(lat))
	if err != nil {
		return nil, err
	}
	if b.err != nil {
		return nil, b.err
	}
	out.values = layers
	return out, nil
}

// cachedOracle returns the workload's oracle answer, computing it only
// when no earlier run in this checkout has cached it. Inputs follow
// from the workload, seed and sizes, and the answer from the inputs and
// the source, so all of them key the cache.
func cachedOracle(o options, c *runContext, w batchWorkload) ([]fuzzyjoin.RIDPair, error) {
	key := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%+v|%s", o.workload, o.seed, o.sizes, c.SourceSHA256)))
	path := filepath.Join(o.outDir, "oracle", hex.EncodeToString(key[:12])+".gob")
	if b, err := os.ReadFile(path); err == nil {
		var want []fuzzyjoin.RIDPair
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&want); err == nil {
			c.OracleCached = true
			return want, nil
		}
	}
	want := oracle(w)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		return nil, fmt.Errorf("caching the oracle: %w", err)
	}
	// Write and rename, so a concurrent or interrupted run never reads
	// a partial file.
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("caching the oracle: %w", err)
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("caching the oracle: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("caching the oracle: %w", err)
	}
	return want, nil
}

// load writes the workload's inputs into a fresh DFS.
func load(w batchWorkload) (*fuzzyjoin.FS, error) {
	fs := fuzzyjoin.NewFS(4)
	if err := fuzzyjoin.WriteRecords(fs, "r", w.r); err != nil {
		return nil, fmt.Errorf("loading R: %w", err)
	}
	if w.s != nil {
		if err := fuzzyjoin.WriteRecords(fs, "s", w.s); err != nil {
			return nil, fmt.Errorf("loading S: %w", err)
		}
	}
	return fs, nil
}

// repeat runs checked joins for the given seconds (at least minJoins)
// and returns the successful ones.
func (b *batchRun) repeat(runner mapreduce.TaskRunner, seconds float64) []joinRun {
	var runs []joinRun
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minJoins || time.Now().Before(deadline); n++ {
		if j, ok := b.join(runner); ok {
			runs = append(runs, j)
		}
	}
	return runs
}

// joinRun is one successful join: its result, when it started, how
// long the Join call took, what it allocated, and the process's peak
// resident memory while it ran.
type joinRun struct {
	res        *fuzzyjoin.Result
	start      time.Time
	d          time.Duration
	allocBytes uint64
	gcCycles   uint32
	peakMiB    float64
}

// join runs one join with the given task runner (nil runs in-process)
// and checks its output against the oracle. Only the Join call is
// timed. The join's files are removed afterwards.
func (b *batchRun) join(runner mapreduce.TaskRunner) (joinRun, bool) {
	b.joins++
	cfg := b.w.cfg
	cfg.FS = b.fs
	cfg.Work = fmt.Sprintf("join%d", b.joins)
	cfg.Runner = runner
	spec := fuzzyjoin.JoinSpec{Config: cfg, Input: "r"}
	if b.w.s != nil {
		spec.InputS = "s"
	}
	defer b.fs.RemovePrefix(cfg.Work)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.keep(resetPeakRSS())
	start := time.Now()
	res, err := fuzzyjoin.Join(context.Background(), spec)
	d := time.Since(start)
	peak, rssErr := peakRSS()
	b.keep(rssErr)
	runtime.ReadMemStats(&m1)
	if err != nil {
		b.tally.record(fmt.Sprintf("join %d: %v", b.joins, err))
		return joinRun{}, false
	}
	if problem := b.check(res); problem != "" {
		b.tally.record(fmt.Sprintf("join %d: %s", b.joins, problem))
		return joinRun{}, false
	}
	b.tally.record("")
	return joinRun{res: res, start: start, d: d, peakMiB: peak,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, gcCycles: m1.NumGC - m0.NumGC}, true
}

// keep remembers the first error of the benchmark's own measuring (not
// of the program under test); the run fails with it.
func (b *batchRun) keep(err error) {
	if b.err == nil {
		b.err = err
	}
}

// check compares a join's final output with the oracle ("" when equal).
func (b *batchRun) check(res *fuzzyjoin.Result) string {
	joined, err := fuzzyjoin.ReadJoinedPairs(b.fs, res.Output)
	if err != nil {
		return fmt.Sprintf("reading output: %v", err)
	}
	got := make([]fuzzyjoin.RIDPair, len(joined))
	for i, p := range joined {
		got[i] = fuzzyjoin.RIDPair{A: p.Left.RID, B: p.Right.RID, Sim: p.Sim}
	}
	ppjoin.SortPairs(got)
	if b.o.corrupt && len(got) > 0 {
		got = got[1:]
	}
	if d := conformance.Diff(got, b.want); d != "" {
		return "output differs from the oracle: " + d
	}
	return ""
}

// traced runs joins for --seconds with a span-recording task runner and
// returns the per-layer metrics: the median over traced joins of each
// join's layer values, plus the single-node kernel, tokenizer and (on
// self-dist) in-process comparison timings.
func (b *batchRun) traced(runner mapreduce.TaskRunner, untracedJoin float64) (map[string]float64, error) {
	tr := newTracer()
	var (
		perJoin []map[string]float64
		lat     []float64
	)
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for n := 1; n <= minJoins || time.Now().Before(deadline); n++ {
		sr := newSpanRunner(runner, tr, n)
		j, ok := b.join(sr)
		if !ok {
			continue
		}
		lat = append(lat, secs(j.d))
		v := joinLayers(j, tr, sr, b.w.cfg.Parallelism)
		if runner != nil {
			rpcLayer(v, tr, sr)
		}
		perJoin = append(perJoin, v)
	}
	if len(perJoin) == 0 {
		return nil, fmt.Errorf("no traced join succeeded")
	}
	path := filepath.Join(b.o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.o.workload, b.o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}

	layers := zeroLayers()
	for name := range perJoin[0] {
		var xs []float64
		for _, v := range perJoin {
			xs = append(xs, v[name])
		}
		layers[name] = median(xs)
	}
	layers["bench.trace_overhead_frac"] = ratio(median(lat), untracedJoin) - 1
	layers["tokenize.s"], layers["tokenize.tokens"] = tokenizeLayer(b.w.r, b.w.s)
	layers["ppjoin.kernel_s"] = b.kernel()
	if runner != nil {
		var inproc []float64
		for _, j := range b.repeat(nil, 0) {
			inproc = append(inproc, secs(j.d))
		}
		if len(inproc) > 0 {
			layers["distrib.vs_inprocess"] = ratio(untracedJoin, median(inproc))
		}
	}
	return layers, nil
}

// joinLayers derives one traced join's layer values from its Result and
// spans. Stage spans are laid end to end from the join's start using
// Result.Stages walls; each task-attempt span is parented to its stage.
func joinLayers(j joinRun, tr *tracer, sr *spanRunner, par int) map[string]float64 {
	v := map[string]float64{
		"core.alloc_mib": mib(int64(j.allocBytes)),
		"core.gc_cycles": float64(j.gcCycles),
	}
	joinID := tr.add(span{Run: sr.run, Name: "join", StartMs: tr.at(j.start), EndMs: tr.at(j.start.Add(j.d))})
	var (
		wallSum, spanSum time.Duration
		shuffle, side    int64
		tasks            int
	)
	at := j.start
	for i, st := range j.res.Stages {
		stageID := tr.add(span{Run: sr.run, Parent: joinID, Name: fmt.Sprintf("stage%d", i+1),
			StartMs: tr.at(at), EndMs: tr.at(at.Add(st.Wall))})
		at = at.Add(st.Wall)
		wallSum += st.Wall
		var mapBusy, reduceBusy time.Duration
		for _, job := range st.Jobs {
			ids := sr.attempts(job.Job)
			tr.setParent(ids, stageID)
			for _, id := range ids {
				spanSum += tr.get(id).dur()
			}
			for _, t := range job.MapTasks {
				mapBusy += t.Cost
			}
			for _, t := range job.ReduceTasks {
				reduceBusy += t.Cost
			}
			shuffle += job.TotalShuffleBytes()
			side += job.SideBytes
			tasks += len(job.MapTasks) + len(job.ReduceTasks)
		}
		v[fmt.Sprintf("core.stage%d_s", i+1)] = secs(st.Wall)
		v[fmt.Sprintf("mapreduce.s%d.map_busy_s", i+1)] = secs(mapBusy)
		v[fmt.Sprintf("mapreduce.s%d.reduce_busy_s", i+1)] = secs(reduceBusy)
	}
	v["mapreduce.shuffle_mib"] = mib(shuffle)
	v["mapreduce.side_mib"] = mib(side)
	v["mapreduce.tasks"] = float64(tasks)
	v["mapreduce.slot_idle_frac"] = 1 - float64(spanSum)/(float64(wallSum)*float64(par))

	s2 := j.res.Stages[1]
	count := func(name string) float64 {
		var n int64
		for _, job := range s2.Jobs {
			n += job.Counters[name]
		}
		return float64(n)
	}
	v["core.s2_replicas"] = count("stage2.replicas")
	v["ppjoin.candidates"] = count("stage2.candidates")
	v["ppjoin.verified"] = count("stage2.verified")
	v["ppjoin.results"] = count("stage2.results")
	v["bitsig.rejected"] = count("stage2.bitmap_rejected")
	v["ppjoin.yield"] = ratio(v["ppjoin.results"], v["ppjoin.verified"])
	v["bitsig.reject_frac"] = ratio(v["bitsig.rejected"], v["bitsig.rejected"]+v["ppjoin.verified"])
	if len(s2.Jobs) > 0 {
		var costs []float64
		for _, t := range s2.Jobs[0].ReduceTasks {
			costs = append(costs, secs(t.Cost))
		}
		v["mapreduce.s2.reduce_skew"] = ratio(quantile(costs, 1), mean(costs))
	}
	return v
}

// rpcLayer adds the transport metrics of one join on the RPC path: the
// attempt spans are RPC round trips, and what the worker did not spend
// in the task body is transport and dispatch overhead.
func rpcLayer(v map[string]float64, tr *tracer, sr *spanRunner) {
	var (
		rpc, body time.Duration
		payload   int64
	)
	ids := sr.allAttempts()
	for _, id := range ids {
		s := tr.get(id)
		rpc += s.dur()
		body += time.Duration(s.CostMs * float64(time.Millisecond))
		payload += s.PayloadBytes
	}
	v["distrib.rpcs"] = float64(len(ids))
	v["distrib.rpc_s"] = secs(rpc)
	v["distrib.overhead_s"] = secs(rpc - body)
	v["distrib.payload_mib"] = mib(payload)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tokenizeLayer times word tokenization of every join attribute once
// (median of three passes) and counts the tokens.
func tokenizeLayer(relations ...[]fuzzyjoin.Record) (float64, float64) {
	var (
		times  []float64
		tokens int
	)
	for rep := 0; rep < 3; rep++ {
		tokens = 0
		start := time.Now()
		for _, recs := range relations {
			for _, r := range recs {
				tokens += len(tokenize.Word{}.Tokenize(r.JoinAttr(fuzzyjoin.FieldTitle, fuzzyjoin.FieldAuthors)))
			}
		}
		times = append(times, secs(time.Since(start)))
	}
	return median(times), float64(tokens)
}

// kernel times the single-node PPJoin+ kernel (the paper's baseline)
// over the workload's frequency-ranked items, median of three runs. Its
// pair count is checked against the oracle.
func (b *batchRun) kernel() float64 {
	rItems, sItems := rankedItems(b.w.r, b.w.s)
	opts := ppjoin.Options{Threshold: b.w.cfg.Threshold, Filters: filter.AllFilters, Bitmap: b.w.cfg.BitmapFilter}
	var times []float64
	for rep := 0; rep < 3; rep++ {
		pairs := 0
		emit := func(fuzzyjoin.RIDPair) { pairs++ }
		start := time.Now()
		if sItems == nil {
			ppjoin.SelfJoin(rItems, opts, emit)
		} else {
			ppjoin.RSJoin(rItems, sItems, opts, emit)
		}
		times = append(times, secs(time.Since(start)))
		problem := ""
		if pairs != len(b.want) {
			problem = fmt.Sprintf("single-node kernel found %d pairs, oracle %d", pairs, len(b.want))
		}
		b.tally.record(problem)
	}
	return median(times)
}

// rankedItems ranks tokens by ascending frequency in R (ties by token),
// as Stage 1 does, and converts both relations to kernel items; S
// tokens outside R's dictionary are dropped.
func rankedItems(r, s []fuzzyjoin.Record) (rItems, sItems []ppjoin.Item) {
	toks := func(rec fuzzyjoin.Record) []string {
		return tokenize.Word{}.Tokenize(rec.JoinAttr(fuzzyjoin.FieldTitle, fuzzyjoin.FieldAuthors))
	}
	freq := map[string]int{}
	for _, rec := range r {
		for _, t := range toks(rec) {
			freq[t]++
		}
	}
	order := make([]string, 0, len(freq))
	for t := range freq {
		order = append(order, t)
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] < freq[order[j]]
		}
		return order[i] < order[j]
	})
	ord := tokenize.NewOrder(order)
	items := func(recs []fuzzyjoin.Record) []ppjoin.Item {
		if recs == nil {
			return nil
		}
		out := make([]ppjoin.Item, len(recs))
		for i, rec := range recs {
			_, ranks := ord.SortByRank(toks(rec))
			out[i] = ppjoin.Item{RID: rec.RID, Ranks: ranks}
		}
		return out
	}
	return items(r), items(s)
}
