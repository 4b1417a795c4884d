package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// span is one timed interval recorded at a layer boundary. Spans of one
// join (or one serving window) share Run; Parent is the ID of the span
// that caused it (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     int     `json:"run"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// Job, Task and Attempt identify a task-attempt span.
	Job     string `json:"job,omitempty"`
	Task    int    `json:"task,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// CostMs is the task body time the engine reported for an attempt;
	// on the RPC path the rest of the span is transport.
	CostMs float64 `json:"cost_ms,omitempty"`
	// PayloadBytes is the task data carried across the runner seam:
	// map segments returned, reduce segments sent.
	PayloadBytes int64 `json:"payload_bytes,omitempty"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndMs - s.StartMs) * float64(time.Millisecond))
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.epoch)) }

// add records a span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// setParent re-parents spans recorded before their parent existed (task
// attempts are seen before the stage they belong to is known).
func (t *tracer) setParent(ids []int, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.spans[id-1].Parent = parent
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanRunner is a mapreduce.TaskRunner that records one span per task
// attempt. With a nil inner runner it executes attempts in this process
// through the engine's own attempt bodies; otherwise it times the inner
// runner (the distributed session's RPC dispatch).
type spanRunner struct {
	inner  mapreduce.TaskRunner
	tr     *tracer
	run    int
	serial atomic.Int64

	mu    sync.Mutex
	byJob map[string][]int // job name -> attempt span IDs
}

func newSpanRunner(inner mapreduce.TaskRunner, tr *tracer, run int) *spanRunner {
	return &spanRunner{inner: inner, tr: tr, run: run, byJob: map[string][]int{}}
}

func (r *spanRunner) record(job *mapreduce.Job, name string, task, attempt int, start time.Time, cost time.Duration, payload int64) {
	id := r.tr.add(span{
		Run: r.run, Name: name, StartMs: r.tr.at(start), EndMs: r.tr.at(time.Now()),
		Job: job.Name, Task: task, Attempt: attempt, CostMs: ms(cost), PayloadBytes: payload,
	})
	r.mu.Lock()
	r.byJob[job.Name] = append(r.byJob[job.Name], id)
	r.mu.Unlock()
}

// RunMap implements mapreduce.TaskRunner.
func (r *spanRunner) RunMap(job *mapreduce.Job, taskID, attempt int, split dfs.Split) (mapreduce.MapOutput, error) {
	start := time.Now()
	var (
		out mapreduce.MapOutput
		err error
	)
	if r.inner != nil {
		out, err = r.inner.RunMap(job, taskID, attempt, split)
	} else {
		out, err = mapreduce.ExecMapAttempt(job, taskID, attempt, split)
	}
	var payload int64
	for _, p := range out.Parts {
		payload += int64(len(p))
	}
	r.record(job, "map", taskID, attempt, start, out.Metrics.Cost, payload)
	return out, err
}

// RunReduce implements mapreduce.TaskRunner. In-process attempts write
// under <job.Output>/_temporary-, with a serial suffix so no two
// attempts share a name, as the distributed runner does.
func (r *spanRunner) RunReduce(job *mapreduce.Job, taskID, attempt int, column [][]byte) (mapreduce.ReduceOutput, error) {
	start := time.Now()
	var (
		out mapreduce.ReduceOutput
		err error
	)
	if r.inner != nil {
		out, err = r.inner.RunReduce(job, taskID, attempt, column)
	} else {
		temp := fmt.Sprintf("%s/_temporary-part-r-%05d-%d-b%d", job.Output, taskID, attempt, r.serial.Add(1))
		out, err = mapreduce.ExecReduceAttempt(job, taskID, attempt, column, temp)
	}
	var payload int64
	for _, seg := range column {
		payload += int64(len(seg))
	}
	r.record(job, "reduce", taskID, attempt, start, out.Metrics.Cost, payload)
	return out, err
}

// attempts returns the attempt spans recorded for a job.
func (r *spanRunner) attempts(job string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byJob[job]
}

// allAttempts returns every attempt span recorded.
func (r *spanRunner) allAttempts() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []int
	for _, job := range r.byJob {
		ids = append(ids, job...)
	}
	return ids
}
