package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyjoin"
	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/datagen"
)

// The serve-mixed traffic: closed-loop clients, each waiting for its
// reply before sending the next call. addShare of the calls Add a fresh
// record; the rest Match a corpus record chosen Zipf(matchZipf), offset
// 1 (as in the repository's serve ablation), over a seeded permutation
// of the corpus. The permutation, and with it the hot set, moves every
// hotSetEvery: at offset 1 the five hottest records draw half of the
// calls, so with one hot set per run the Match p50 would mostly measure
// which five records the seed made hot.
const (
	addShare    = 0.05
	matchZipf   = 1.3
	hotSetEvery = 200 * time.Millisecond
)

// driftThreshold is the index's default drift re-order trigger
// (fuzzyjoin.WithDriftThreshold): the index rebuilds its token order on
// the Add that takes the records added since the last build past this
// share of the records it was built over. The benchmark keeps the
// default and checks that each measured window crosses a re-order, so a
// change of the default shows as failed runs.
const driftThreshold = 0.25

// latRing is how many of the most recent Match calls the index's Stats
// takes its worker percentiles over.
const latRing = 8192

// statsEvery is how often a traced run snapshots Stats during the
// measured window.
const statsEvery = 500 * time.Millisecond

// loadGen drives closed-loop Match/Add traffic against one index.
type loadGen struct {
	ix     *fuzzyjoin.Index
	corpus []fuzzyjoin.Record
	pool   []fuzzyjoin.Record
	next   atomic.Int64 // next pool record to Add
	// A window ends early once it would Add pool record addStop.
	addStop int64
	full    atomic.Bool
	seed    int64
	rounds  int64
	// base is the number of records the index was last built over, and
	// builtAt the number of Adds made before that build, as the drift
	// rule predicts them (see driftLeft).
	base, builtAt int
}

// clientLog is what one client saw in one window.
type clientLog struct {
	match, add []float64 // latencies in seconds
	matchEnd   []float64 // when each Match returned, seconds into the window
	spans      []int     // span IDs of the calls, when traced
	errs       []string
	// perSecond counts the calls completed in each whole second of the
	// window.
	perSecond []int
}

// windowStats summarises one window; latencies are in seconds. The
// worker figures (milliseconds) are set only when Stats was sampled.
type windowStats struct {
	opsPerS, matchP50, matchP99, addP50 float64
	matches                             int
	workerP50, workerP99, queueWait     float64
}

// statsAt is one Stats snapshot taken during a window.
type statsAt struct {
	at       float64 // seconds into the window
	p50, p99 float64 // worker percentiles, ms
}

// runServe measures the online index. Set-up builds the index over the
// corpus (default options); a warm-up window fills the index's caches
// and then the measured window runs for --seconds. Afterwards a seeded
// sample of Match answers over the final corpus is checked against the
// oracle.
func runServe(o options, c *runContext) (*outcome, error) {
	sz := o.sizes
	all := datagen.Generate(datagen.Spec{Records: sz.serveCorpus + sz.servePool, Seed: o.seed})
	corpus, pool := all[:sz.serveCorpus], all[sz.serveCorpus:]
	clients := capProcs(2)
	c.Corpus["index"] = len(corpus)
	c.Corpus["add_pool"] = len(pool)
	c.Config = fmt.Sprintf("default index options, %d closed-loop clients, %.0f%% Match (Zipf %.1f) / %.0f%% Add, re-order at the %dth Add of a window",
		clients, 100*(1-addShare), matchZipf, 100*addShare, sz.reorderAfter)

	out := &outcome{values: map[string]float64{}}
	ctx := context.Background()
	var (
		setup []float64
		ix    *fuzzyjoin.Index
	)
	defer func() {
		if ix != nil {
			ix.Close()
		}
	}()
	for begin := time.Now(); len(setup) < sz.setupReps || time.Since(begin).Seconds() < sz.setupSeconds; {
		if ix != nil {
			ix.Close()
			ix = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if ix, err = fuzzyjoin.NewIndex(ctx, fuzzyjoin.WithCorpus(corpus)); err != nil {
			return nil, fmt.Errorf("building the index: %w", err)
		}
		setup = append(setup, secs(time.Since(start)))
	}
	c.SetupSamples = len(setup)

	l := &loadGen{ix: ix, corpus: corpus, pool: pool, seed: o.seed, base: len(corpus)}
	debug.FreeOSMemory()
	l.window(warmup(o.seconds), clients, nil, false, 0, &out.tally)

	adds, err := l.primeDrift(sz.reorderAfter, &out.tally)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	st0 := ix.Stats()
	ticks, ticksOK := readCPUTicks()
	w := l.window(o.seconds, clients, nil, o.trace, adds, &out.tally)
	c.StealFrac = stealSince(ticks, ticksOK)
	st1 := ix.Stats()
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	c.OpSamples = w.matches
	checkReorder(st0, st1, &out.tally)

	if o.trace {
		adds, err := l.primeDrift(sz.reorderAfter, &out.tally)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		ts0 := ix.Stats()
		tw := l.window(o.seconds, clients, tr, false, adds, &out.tally)
		checkReorder(ts0, ix.Stats(), &out.tally)
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		v := zeroLayers()
		v["tokenize.s"], v["tokenize.tokens"] = tokenizeLayer(corpus)
		v["ssjserve.worker_p50_ms"] = w.workerP50
		v["ssjserve.worker_p99_ms"] = w.workerP99
		v["ssjserve.queue_wait_ms"] = w.queueWait
		v["ssjserve.match_p99_ms"] = 1000 * w.matchP99
		v["ssjserve.add_p50_ms"] = 1000 * w.addP50
		v["ssjserve.reorders"] = float64(st1.Reorders - st0.Reorders)
		v["ssjserve.pairs_per_match"] = ratio(float64(st1.Pairs-st0.Pairs), float64(st1.Queries-st0.Queries))
		v["bench.trace_overhead_frac"] = ratio(tw.matchP50, w.matchP50) - 1
		out.values = v
	} else {
		out.values["op_p50_ms"] = 1000 * w.matchP50
		out.values["ops_per_s"] = w.opsPerS
		out.values["peak_rss_mib"] = peak
		out.values["setup_s"] = median(setup)
	}

	added := int(l.next.Load())
	if added > len(pool) {
		added = len(pool)
	}
	final := append(append([]fuzzyjoin.Record(nil), corpus...), pool[:added]...)
	c.Corpus["final"] = len(final)
	c.Pairs = l.check(ctx, final, sz.serveSample, o.corrupt, &out.tally)
	return out, nil
}

// reorderStep returns how many Adds after a build over base records
// set off the next drift re-order. It follows the index's rule: the
// re-order runs on the Add that takes the Adds since the last build
// past driftThreshold × the records of that build, and the rebuild
// covers every record so far.
func reorderStep(base int) int { return int(driftThreshold*float64(base)) + 1 }

// driftLeft returns how many more Adds set off the index's next drift
// re-order.
func (l *loadGen) driftLeft() int {
	added := int(l.next.Load())
	if added > len(l.pool) {
		added = len(l.pool)
	}
	for step := reorderStep(l.base); added-l.builtAt >= step; step = reorderStep(l.base) {
		l.builtAt += step
		l.base += step
	}
	return reorderStep(l.base) - (added - l.builtAt)
}

// primeDrift Adds pool records, untimed and one at a time, until the
// index is reorderAfter Adds short of its next drift re-order. It
// returns how many Adds the window that follows may make to cross
// exactly that one re-order: the window crosses it at a fixed count of
// its own Adds however fast the program runs, and ends early rather
// than cross a second one.
func (l *loadGen) primeDrift(reorderAfter int, t *tally) (int, error) {
	for n := l.driftLeft() - reorderAfter; n > 0; n-- {
		k := l.next.Add(1) - 1
		if k >= int64(len(l.pool)) {
			return 0, fmt.Errorf("the pool of %d records to Add ran out", len(l.pool))
		}
		problem := ""
		if err := l.ix.Add(l.pool[k]); err != nil {
			problem = fmt.Sprintf("add: %v", err)
		}
		t.record(problem)
	}
	left := l.driftLeft()
	return left + reorderStep(l.base+reorderStep(l.base)) - 1, nil
}

// checkReorder records a failed operation when no drift re-order ran
// between two Stats snapshots taken around a measured window.
func checkReorder(before, after fuzzyjoin.IndexStats, t *tally) {
	problem := ""
	if after.Reorders == before.Reorders {
		problem = "the measured window crossed no drift re-order"
	}
	t.record(problem)
}

// window runs the traffic for the given seconds, or until it has made
// maxAdds Adds (0: no limit), and summarises what the clients saw; with
// a tracer each call is recorded as a span under its client's span.
// With sample set, Stats is snapshotted every statsEvery and the worker
// percentiles are compared with the client's over the same calls.
func (l *loadGen) window(seconds float64, clients int, tr *tracer, sample bool, maxAdds int, t *tally) windowStats {
	l.rounds++
	l.addStop = math.MaxInt64
	if maxAdds > 0 {
		l.addStop = l.next.Load() + int64(maxAdds)
	}
	l.full.Store(false)
	logs := make([]clientLog, clients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			logs[id] = l.client(id, start, deadline, tr)
		}(id)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var snaps []statsAt
	tick := time.NewTicker(statsEvery)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			if sample {
				st := l.ix.Stats()
				snaps = append(snaps, statsAt{at: secs(time.Since(start)), p50: st.P50Ms, p99: st.P99Ms})
			}
		}
	}
	tick.Stop()
	end := time.Now()

	var root int
	if tr != nil {
		root = tr.add(span{Run: int(l.rounds), Name: "window", StartMs: tr.at(start), EndMs: tr.at(end)})
	}
	var match, add []float64
	// Only the seconds the window ran to their end count.
	perSecond := make([]float64, min(len(logs[0].perSecond), int(end.Sub(start)/time.Second)))
	for id, cl := range logs {
		match = append(match, cl.match...)
		add = append(add, cl.add...)
		for i := range perSecond {
			perSecond[i] += float64(cl.perSecond[i])
		}
		for _, e := range cl.errs {
			t.record(e)
		}
		for i := 0; i < len(cl.match)+len(cl.add); i++ {
			t.record("")
		}
		if tr != nil {
			cid := tr.add(span{Run: int(l.rounds), Parent: root, Name: fmt.Sprintf("client%d", id),
				StartMs: tr.at(start), EndMs: tr.at(end)})
			tr.setParent(cl.spans, cid)
		}
	}
	// Throughput is the median over the window's whole seconds, so a
	// burst of contention from outside the benchmark that covers fewer
	// than half of them does not move it.
	opsPerS := float64(len(match)+len(add)) / end.Sub(start).Seconds()
	if len(perSecond) > 0 {
		opsPerS = median(perSecond)
	}
	ws := windowStats{
		opsPerS:  opsPerS,
		matchP50: median(match),
		matchP99: quantile(match, 0.99),
		addP50:   median(add),
		matches:  len(match),
	}
	if sample {
		ws.workerP50, ws.workerP99, ws.queueWait = workerFigures(logs, snaps)
	}
	return ws
}

// workerFigures compares the worker-measured Match percentiles of each
// Stats snapshot with the client-seen latencies of the same calls: the
// latRing Matches that returned last before the snapshot. Snapshots
// taken before the window had returned latRing Matches are skipped,
// since their ring still holds calls from before the window. It returns
// the medians over snapshots of the worker p50, the worker p99, and the
// client p50 minus the worker p50 (queue wait), in milliseconds.
func workerFigures(logs []clientLog, snaps []statsAt) (p50, p99, wait float64) {
	type call struct{ end, lat float64 }
	var calls []call
	for _, cl := range logs {
		for i, lat := range cl.match {
			calls = append(calls, call{cl.matchEnd[i], lat})
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].end < calls[j].end })
	var p50s, p99s, waits []float64
	for _, s := range snaps {
		n := sort.Search(len(calls), func(i int) bool { return calls[i].end > s.at })
		if n < latRing {
			continue
		}
		lat := make([]float64, latRing)
		for i, c := range calls[n-latRing : n] {
			lat[i] = c.lat
		}
		p50s = append(p50s, s.p50)
		p99s = append(p99s, s.p99)
		waits = append(waits, 1000*median(lat)-s.p50)
	}
	if len(p50s) == 0 {
		return 0, 0, 0
	}
	return median(p50s), median(p99s), median(waits)
}

// client sends calls from start until deadline, each after the
// previous reply.
func (l *loadGen) client(id int, start, deadline time.Time, tr *tracer) clientLog {
	rng := rand.New(rand.NewSource(l.seed*1_000_003 + l.rounds*7919 + int64(id)))
	zipf := rand.NewZipf(rng, matchZipf, 1, uint64(len(l.corpus)-1))
	ctx := context.Background()
	cl := clientLog{perSecond: make([]int, int(deadline.Sub(start)/time.Second))}
	phase, hot := -1, affine{}
	for time.Now().Before(deadline) && !l.full.Load() {
		var (
			add  bool
			err  error
			sent time.Time
		)
		if rng.Float64() < addShare {
			k := l.next.Add(1) - 1
			if k >= l.addStop {
				// The window has made its Adds. Give the claim back, so
				// the count of Adds made stays exact.
				l.next.Add(-1)
				l.full.Store(true)
				break
			}
			if k < int64(len(l.pool)) {
				add = true
				sent = time.Now()
				err = l.ix.Add(l.pool[k])
			}
		}
		if !add {
			if p := int(time.Since(start) / hotSetEvery); p != phase {
				phase = p
				hot = l.hotSet(phase)
			}
			probe := l.corpus[hot.record(zipf.Uint64())]
			sent = time.Now()
			_, err = l.ix.Match(ctx, probe)
		}
		end := time.Now()
		name := "match"
		if add {
			name = "add"
		}
		if err != nil {
			cl.errs = append(cl.errs, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if add {
			cl.add = append(cl.add, secs(end.Sub(sent)))
		} else {
			cl.match = append(cl.match, secs(end.Sub(sent)))
			cl.matchEnd = append(cl.matchEnd, secs(end.Sub(start)))
		}
		if sec := int(end.Sub(start) / time.Second); sec < len(cl.perSecond) {
			cl.perSecond[sec]++
		}
		if tr != nil {
			cl.spans = append(cl.spans, tr.add(span{Run: int(l.rounds), Name: name, StartMs: tr.at(sent), EndMs: tr.at(end)}))
		}
	}
	return cl
}

// affine is the permutation r → (a·r + b) mod n of the corpus indexes.
type affine struct{ a, b, n uint64 }

func (p affine) record(r uint64) uint64 { return (p.a*r + p.b) % p.n }

// hotSet returns the seeded permutation that maps Zipf ranks to corpus
// records in one hot-set phase of the current window; every client
// derives the same one.
func (l *loadGen) hotSet(phase int) affine {
	n := uint64(len(l.corpus))
	rng := rand.New(rand.NewSource(l.seed*1_000_003 + l.rounds*7919 + int64(phase)*104_729 + 1))
	a := uint64(1)
	for n > 1 {
		a = 1 + uint64(rng.Int63n(int64(n-1)))
		if gcd(a, n) == 1 {
			break
		}
	}
	return affine{a: a, b: uint64(rng.Int63n(int64(n))), n: n}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// check compares a seeded sample of Match answers over the final
// corpus with conformance.ServeOracle and returns the pairs checked. The
// oracle scans the whole corpus per probe, so the probes' oracle
// answers are computed on every allowed CPU.
func (l *loadGen) check(ctx context.Context, final []fuzzyjoin.Record, n int, corrupt bool, t *tally) int {
	rng := rand.New(rand.NewSource(l.seed + 17))
	probes := make([]fuzzyjoin.Record, n)
	for i := range probes {
		probes[i] = final[rng.Intn(len(final))]
	}
	wants := parallel(n, hostProcs(), func(i int) []fuzzyjoin.JoinedPair {
		return conformance.ServeOracle(final, probes[i], conformance.Params{})
	})
	pairs := 0
	for i, probe := range probes {
		got, err := l.ix.Match(ctx, probe)
		if err != nil {
			t.record(fmt.Sprintf("check match rid=%d: %v", probe.RID, err))
			continue
		}
		if corrupt && i == 0 {
			got = append(got, fuzzyjoin.JoinedPair{Left: probe, Right: probe, Sim: 1})
		}
		pairs += len(wants[i])
		problem := ""
		if d := diffAnswers(got, wants[i]); d != "" {
			problem = fmt.Sprintf("match rid=%d differs from the oracle: %s", probe.RID, d)
		}
		t.record(problem)
	}
	return pairs
}

// diffAnswers compares one probe's answers by indexed RID and exact
// similarity ("" when equal).
func diffAnswers(got, want []fuzzyjoin.JoinedPair) string {
	key := func(ps []fuzzyjoin.JoinedPair) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = fmt.Sprintf("%d:%v", p.Left.RID, p.Sim)
		}
		sort.Strings(out)
		return out
	}
	g, w := key(got), key(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d answers, oracle %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("answer %s, oracle %s", g[i], w[i])
		}
	}
	return ""
}
