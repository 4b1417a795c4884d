package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/ssjserve"
)

// serveShardCounts are the index shard counts the ablation sweeps: one
// shard serializes all postings access; more shards let Zipf-hot probe
// traffic fan out over independent locks.
var serveShardCounts = []int{1, 2, 8}

// serveQueries and serveClients size the load: serveQueries probes drawn
// Zipf-skewed from the corpus (hot records dominate, the way popular
// entities dominate real query logs) are fired by serveClients
// concurrent client goroutines.
const (
	serveQueries = 4000
	serveClients = 8
	serveZipfS   = 1.3 // same exponent family as the token-skew model
)

// ServeResult records the online-service ablation: the standard DBLP-like
// corpus is indexed once per shard count and served the same Zipf query
// stream. Like the distrib ablation this measures real wall-clock, so
// absolute QPS depends on the host (recorded in the document); the
// portable part is the shard scaling shape.
type ServeResult struct {
	Goos    string     `json:"goos"`
	Goarch  string     `json:"goarch"`
	CPUs    int        `json:"cpus"`
	Records int        `json:"records"`
	Queries int        `json:"queries"`
	Clients int        `json:"clients"`
	ZipfS   float64    `json:"zipf_s"`
	Pairs   int64      `json:"pairs"`
	Rows    []ServeRow `json:"rows"`
}

// ServeRow is one shard count's measurement.
type ServeRow struct {
	Shards int     `json:"shards"`
	QPS    float64 `json:"qps"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	WallNs int64   `json:"wall_ns"`
}

// ServeAblation measures the online similarity-join service: the x1
// corpus is batch-indexed per shard count and serveClients goroutines
// replay the same seeded Zipf-skewed query stream against it. Every cell
// must produce the same total pair count — the shard count is a
// concurrency knob, never a semantic one.
func (s *Suite) ServeAblation() (*ServeResult, error) {
	corpus := s.w.dblpTimes(1)
	r := &ServeResult{
		Goos:    runtime.GOOS,
		Goarch:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Records: len(corpus),
		Queries: serveQueries,
		Clients: serveClients,
		ZipfS:   serveZipfS,
		Pairs:   -1,
	}
	probes := zipfProbes(corpus, serveQueries, s.w.p.Seed)
	for _, shards := range serveShardCounts {
		row, pairs, err := s.runServeCell(corpus, probes, shards)
		if err != nil {
			return nil, fmt.Errorf("serve %d shard(s): %w", shards, err)
		}
		if r.Pairs < 0 {
			r.Pairs = pairs
		} else if pairs != r.Pairs {
			return nil, fmt.Errorf("serve %d shard(s): %d pairs, first cell found %d", shards, pairs, r.Pairs)
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// zipfProbes draws the query stream: probe i is the corpus record at a
// Zipf-distributed index, so a few hot records absorb most traffic.
func zipfProbes(corpus []records.Record, n int, seed int64) []records.Record {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(corpus)-1))
	probes := make([]records.Record, n)
	for i := range probes {
		probes[i] = corpus[zipf.Uint64()]
	}
	return probes
}

// runServeCell serves the query stream at one shard count and returns
// its measurement row and total answered pairs.
func (s *Suite) runServeCell(corpus, probes []records.Record, shards int) (ServeRow, int64, error) {
	svc, err := ssjserve.NewService(ssjserve.Options{
		Threshold: s.w.p.Threshold,
		Shards:    shards,
		Workers:   serveClients,
	}, corpus)
	if err != nil {
		return ServeRow{}, 0, err
	}
	defer svc.Close()

	ctx := context.Background()
	errs := make([]error, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(probes); i += serveClients {
				if _, err := svc.Match(ctx, probes[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ServeRow{}, 0, err
		}
	}

	st := svc.Stats()
	row := ServeRow{
		Shards: shards,
		P50Ms:  st.P50Ms,
		P99Ms:  st.P99Ms,
		WallNs: wall.Nanoseconds(),
	}
	// QPS over the measured window, not service uptime: index build time
	// must not dilute the serving rate.
	if wall > 0 {
		row.QPS = float64(len(probes)) / wall.Seconds()
	}
	return row, st.Pairs, nil
}

// Render prints the shard-scaling table.
func (r *ServeResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%.2f", row.P50Ms),
			fmt.Sprintf("%.2f", row.P99Ms),
		}
	}
	return fmt.Sprintf("Online service: real wall-clock, %d Zipf(s=%.1f) queries x %d clients over %d records (%d pairs served)\n",
		r.Queries, r.ZipfS, r.Clients, r.Records, r.Pairs) +
		"(every shard count must serve the identical pair total; QPS is host-dependent)\n" +
		table([]string{"shards", "QPS", "p50 (ms)", "p99 (ms)"}, rows)
}

// JSON renders the result as the BENCH_serve.json document.
func (r *ServeResult) JSON() ([]byte, error) {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}
