package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"bitcolor"
	"bitcolor/internal/obs"
)

// config sizes one benchmark run. Tests shrink it.
type config struct {
	workload    string
	seed        int64
	seconds     time.Duration // length of the measured phase
	trace       bool          // traced run: per-layer metrics instead of end-to-end ones
	setups      int           // set-ups performed; setup_s is their median
	minRequests int           // the measured phase also runs at least this many requests
	small       bool          // gen.SmallRegistry-sized inputs
	workers     int           // compute goroutines per run; 0 = the workload's own
	dir         string        // where inputs are written
	// corrupt flips one reference color per input after set-up, so every
	// request must count as a mismatch (the oracle's own test).
	corrupt bool
}

// errMismatch marks a request whose colors differ from the greedy
// reference.
var errMismatch = errors.New("colors differ from the sequential greedy reference")

// call is one request in flight. In a traced request span is the request's
// root span and rec collects what the per-layer metrics need; untraced,
// both are nil and timed only runs the call.
type call struct {
	tr   *obs.Observer
	req  int
	span *obs.Span
	rec  *record
}

// timed runs one library call as a child span of the request.
func (c *call) timed(name string, fn func() error) error {
	sp := c.span.Child(name)
	start := time.Now()
	err := fn()
	if c.rec != nil {
		c.rec.times[name] = time.Since(start)
	}
	sp.End()
	return err
}

// probe runs an extra call after the request, as a root span carrying the
// request's id.
func (c *call) probe(name string, fn func() error) error {
	sp := c.tr.StartSpan(name).Attr("req", int64(c.req))
	start := time.Now()
	err := fn()
	c.rec.times[name] = time.Since(start)
	sp.End()
	return err
}

// record is what one traced request contributes to the per-layer metrics:
// wall times keyed by layer operation and per-request counts.
type record struct {
	input   int
	latency time.Duration
	edges   float64
	verts   float64
	times   map[string]time.Duration
	counts  map[string]float64
}

// runStats copies the counters the per-layer metrics use out of a run's
// statistics (whose slices may alias a Scratch arena). Nil-safe.
func (r *record) runStats(st bitcolor.RunStats) {
	if r == nil {
		return
	}
	c := r.counts
	c["coloring.worker_imbalance"] = st.Imbalance()
	c["coloring.gather_hot_ratio"] = st.Gather.HotRatio()
	c["coloring.gather_merge_ratio"] = st.Gather.MergeRatio()
	c["gather_pruned"] = float64(st.Gather.PrunedTail)
	c["coloring.gather_auto_disabled"] = 0
	if st.Gather.AutoDisabled {
		c["coloring.gather_auto_disabled"] = 1
	}
	c["deferred"] = float64(st.Deferred)
	c["defer_retries"] = float64(st.DeferRetries)
	c["dispatch.spin_waits"] = float64(st.SpinWaits)
	c["dispatch.forward_ring_peak"] = float64(st.ForwardRingPeak)
	if st.Shards > 0 {
		c["partition.cut_edges"] = float64(st.CutEdges)
		c["partition.boundary_vertices"] = float64(st.BoundaryVertices)
		c["coloring.frontier_vertices"] = float64(st.FrontierVertices)
		c["coloring.cross_shard_defers"] = float64(st.CrossShardDefers)
		// In core all shards color at once; streamed, they run in waves of
		// ResidentShards.
		interior := slices.Max(st.ShardDurations)
		if st.ResidentShards > 0 {
			var sum time.Duration
			for _, d := range st.ShardDurations {
				sum += d
			}
			interior = sum / time.Duration(st.ResidentShards)
		}
		r.times["coloring.interior"] = interior
	}
}

// flightLog matches the run registry's flight-recorder entries to the
// requests that made them, for the pool queue wait.
type flightLog struct {
	mu      sync.Mutex
	claimed map[string]bool
}

// claim returns the queue wait of the earliest unclaimed recorded run that
// began at or after start.
func (f *flightLog) claim(start time.Time) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.claimed == nil {
		f.claimed = map[string]bool{}
	}
	var best *bitcolor.RunSummary
	runs := bitcolor.RecentRuns()
	for i := range runs {
		r := &runs[i]
		if !f.claimed[r.ID] && !r.Start.Before(start) && (best == nil || r.Start.Before(best.Start)) {
			best = r
		}
	}
	if best == nil {
		return 0, false
	}
	f.claimed[best.ID] = true
	return time.Duration(best.QueueWaitMS * float64(time.Millisecond)), true
}

// sample is one completed request; err is nil when it succeeded and its
// colors matched the reference.
type sample struct {
	latency  time.Duration
	vertices int
	err      error
	traced   bool
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	samples []sample
	records []*record
	wall    time.Duration
}

// request sends one request on input i. With tr set it is traced: a
// request span with one child per library call and the oracle check, then
// the fixture's probes.
func request(ctx context.Context, fx *fixture, i int, tr *obs.Observer, req int) (sample, *record) {
	in := fx.inputs[i]
	c := &call{tr: tr, req: req}
	if tr != nil {
		c.span = tr.StartSpan("request").Attr("req", int64(req)).Attr("input", int64(i))
		c.rec = &record{input: i, edges: float64(in.edges), verts: float64(in.vertices),
			times: map[string]time.Duration{}, counts: map[string]float64{}}
	}
	start := time.Now()
	colors, err := fx.serve(ctx, c, in)
	lat := time.Since(start)
	if err == nil {
		err = c.timed("bench.check", func() error {
			if !slices.Equal(colors, in.ref) {
				return errMismatch
			}
			return nil
		})
	}
	if err != nil {
		c.span.Attr("error", err.Error())
		err = fmt.Errorf("request %d on input %d: %w", req, i, err)
	}
	c.span.End()
	s := sample{latency: lat, vertices: in.vertices, err: err, traced: tr != nil}
	if err != nil {
		return s, nil
	}
	if c.rec != nil {
		c.rec.latency = lat
		fx.probe(c, in, colors)
	}
	return s, c.rec
}

// warm runs two passes over the inputs from one client. Their outcome is
// discarded: the measured phase runs and checks the same requests.
func warm(ctx context.Context, fx *fixture) {
	for k := 0; k < 2*len(fx.inputs); k++ {
		request(ctx, fx, k%len(fx.inputs), nil, -1)
	}
}

// measure runs the fixture's clients in a closed loop, each sending its
// next request when the previous one returns and walking the inputs
// round-robin from its own offset, until d has elapsed and at least
// minRequests have completed. With tr set, every second pass over the
// inputs is traced and the others are not, so the traced and untraced
// latencies come from the same interleaved run.
func measure(ctx context.Context, fx *fixture, d time.Duration, minRequests int, tr *obs.Observer) phase {
	var (
		mu    sync.Mutex
		out   phase
		count int
		wg    sync.WaitGroup
	)
	n := len(fx.inputs)
	start := time.Now()
	for c := 0; c < fx.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				mu.Lock()
				done := time.Since(start) >= d && count >= minRequests
				req := count
				count++
				mu.Unlock()
				if done {
					return
				}
				var t *obs.Observer
				if tr != nil && (k/n)%2 == 1 {
					t = tr
				}
				s, rec := request(ctx, fx, (c+k)%n, t, req)
				mu.Lock()
				out.samples = append(out.samples, s)
				if rec != nil {
					out.records = append(out.records, rec)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond counts the samples ranked above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the kernel's resident-set high-water mark, so VmHWM afterwards covers
// only what follows.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MB (10^6
// bytes). Mapped file pages count.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
