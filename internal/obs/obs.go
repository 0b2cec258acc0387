// Package obs is the run-scoped observability layer: structured tracing
// spans with monotonic timings and parent linkage, metric families
// (counters, gauges, histograms) built from padded per-worker shards,
// and exporters for the Chrome trace_event format, the Prometheus text
// exposition format, expvar and log/slog.
//
// The design is overhead-gated: everything is nil-safe, so code under
// instrumentation carries a nil *Observer or nil *Span through its hot
// path and pays one predictable branch per call site — no allocation,
// no atomic, no lock. The engines keep their per-worker counters in
// cache-line-padded shards (see shards.go) whether or not an observer
// is attached, and fold them into metrics.RunStats at run end; the
// observer only ever reads the folded result, off the hot path.
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"bitcolor/internal/metrics"
)

// Observer is one run scope's telemetry sink: it collects spans, owns a
// metric registry, and correlates structured logs under a run ID. All
// methods are safe for concurrent use and safe on a nil receiver (no-ops
// that return nil), so callers thread an optional *Observer without
// branching.
type Observer struct {
	runID  string
	start  time.Time // monotonic anchor; span offsets are Since(start)
	logger *slog.Logger

	mu     sync.Mutex
	spans  []SpanRecord
	notes  map[string]any
	nextID atomic.Int64

	reg *Registry
}

// Option configures New.
type Option func(*Observer)

// WithRunID pins the run identifier (default: derived from the start
// timestamp).
func WithRunID(id string) Option { return func(o *Observer) { o.runID = id } }

// WithLogHandler attaches a structured log sink; every record emitted
// through Logger carries the run ID. Without it, Logger returns a
// no-op logger.
func WithLogHandler(h slog.Handler) Option {
	return func(o *Observer) {
		if h != nil {
			o.logger = slog.New(&runIDHandler{inner: h, runID: o.runID})
		}
	}
}

// New starts a run-scoped observer. The monotonic clock anchor is taken
// here; all span timings are offsets from it.
func New(opts ...Option) *Observer {
	o := &Observer{start: time.Now(), reg: NewRegistry()}
	o.runID = fmt.Sprintf("run-%d", o.start.UnixNano())
	for _, opt := range opts {
		opt(o)
	}
	registerStandardFamilies(o.reg)
	return o
}

// RunID returns the run identifier ("" on nil).
func (o *Observer) RunID() string {
	if o == nil {
		return ""
	}
	return o.runID
}

// Metrics returns the observer's metric registry (nil on nil receiver).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Logger returns the run-correlated structured logger; on a nil observer
// or one without a log handler it returns a logger that discards
// everything, so call sites never nil-check.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.logger == nil {
		return slog.New(discardHandler{})
	}
	return o.logger
}

// Attr is one span attribute. Values are attached lazily — only when the
// span ends, and only when an observer is live — so instrumented code
// builds attributes on the cold path only.
type Attr struct {
	Key   string
	Value any
}

// SpanRecord is one finished span.
type SpanRecord struct {
	// ID and Parent link the span tree; Parent is 0 for roots.
	ID, Parent int64
	// Name identifies the operation ("pipeline/color", "engine/...",
	// "round", ...).
	Name string
	// TID is the trace lane (0 = the coordinating goroutine; workers use
	// 1+w). Chrome's trace viewer renders one horizontal track per TID.
	TID int
	// Start and End are monotonic offsets from the observer's anchor.
	Start, End time.Duration
	// Attrs are the span's key/value annotations.
	Attrs []Attr
}

// Duration is the span's wall time.
func (r SpanRecord) Duration() time.Duration { return r.End - r.Start }

// Span is an in-flight operation. A nil *Span (from a nil observer) is a
// valid no-op: every method returns immediately, so instrumented code
// never branches on the observer being present.
type Span struct {
	o      *Observer
	id     int64
	parent int64
	name   string
	tid    int
	start  time.Duration
	attrs  []Attr
}

// StartSpan opens a root span.
func (o *Observer) StartSpan(name string) *Span { return o.newSpan(name, 0, 0) }

func (o *Observer) newSpan(name string, parent int64, tid int) *Span {
	if o == nil {
		return nil
	}
	return &Span{
		o:      o,
		id:     o.nextID.Add(1),
		parent: parent,
		name:   name,
		tid:    tid,
		start:  time.Since(o.start),
	}
}

// Child opens a sub-span; on a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.o.newSpan(name, s.id, s.tid)
}

// Worker assigns the span to a worker lane (trace track 1+w).
func (s *Span) Worker(w int) *Span {
	if s != nil {
		s.tid = 1 + w
	}
	return s
}

// Attr annotates the span; chainable, no-op on nil.
func (s *Span) Attr(key string, value any) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	return s
}

// End closes the span and records it. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		TID:    s.tid,
		Start:  s.start,
		End:    time.Since(s.o.start),
		Attrs:  s.attrs,
	}
	s.o.mu.Lock()
	s.o.spans = append(s.o.spans, rec)
	s.o.mu.Unlock()
	s.o.reg.Counter(famSpans).Add("", 1)
}

// Annotate attaches a run-level key/value annotation, exported in the
// Chrome trace's otherData (e.g. "cancelled": true on a partial trace
// flushed by a SIGINT handler). Nil-safe and concurrent-safe; the last
// write per key wins.
func (o *Observer) Annotate(key string, value any) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.notes == nil {
		o.notes = map[string]any{}
	}
	o.notes[key] = value
	o.mu.Unlock()
}

// Annotations returns a copy of the run-level annotations (nil when
// none).
func (o *Observer) Annotations() map[string]any {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) == 0 {
		return nil
	}
	out := make(map[string]any, len(o.notes))
	for k, v := range o.notes {
		out[k] = v
	}
	return out
}

// Spans returns a copy of the finished spans in end order.
func (o *Observer) Spans() []SpanRecord {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]SpanRecord, len(o.spans))
	copy(out, o.spans)
	return out
}

// SpanCount returns how many finished spans carry the given name — the
// test hook for "one round span per RunStats round".
func (o *Observer) SpanCount(name string) int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, s := range o.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// ctxKey carries the observer through a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying o; the engine registry's decorator and
// the pipeline pick it up from there.
func NewContext(ctx context.Context, o *Observer) context.Context {
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext extracts the observer (nil when absent).
func FromContext(ctx context.Context) *Observer {
	o, _ := ctx.Value(ctxKey{}).(*Observer)
	return o
}

// Standard metric family names. They are registered up front so a scrape
// before the first run still shows every family.
const (
	famSpans             = "bitcolor_spans_total"
	famRuns              = "bitcolor_engine_runs_total"
	famRunErrors         = "bitcolor_engine_run_errors_total"
	famRounds            = "bitcolor_rounds_total"
	famConflictsFound    = "bitcolor_conflicts_found_total"
	famConflictsRepaired = "bitcolor_conflicts_repaired_total"
	famWorkerVertices    = "bitcolor_worker_vertices_total"
	famWorkerBlocks      = "bitcolor_worker_blocks_total"
	famWorkerSteals      = "bitcolor_worker_steals_total"
	famGatherHot         = "bitcolor_gather_hot_reads_total"
	famGatherMerged      = "bitcolor_gather_merged_reads_total"
	famGatherCold        = "bitcolor_gather_cold_block_loads_total"
	famGatherPruned      = "bitcolor_gather_pruned_tail_total"
	famEngineSeconds     = "bitcolor_engine_duration_seconds"
	famStageSeconds      = "bitcolor_stage_duration_seconds"
	famStageCancelled    = "bitcolor_stage_cancelled_total"
	famLastColors        = "bitcolor_last_run_colors"
	famLastWorkers       = "bitcolor_last_run_workers"
	famLastHotThreshold  = "bitcolor_last_run_hot_threshold"
	famDCTDeferred       = "bitcolor_dct_deferred_total"
	famDCTRetries        = "bitcolor_dct_defer_retries_total"
	famDCTSpinWaits      = "bitcolor_dct_spin_waits_total"
	famDCTRingOccupancy  = "bitcolor_dct_ring_occupancy"
	famDCTForwardWait    = "bitcolor_dct_forward_wait_seconds"
	famShardVertices     = "bitcolor_shard_vertices_total"
	famShardSeconds      = "bitcolor_shard_duration_seconds"
	famShardFrontier     = "bitcolor_shard_frontier_vertices"
	famShardCrossDefers  = "bitcolor_shard_cross_defers_total"
	famGraphLoads        = "bitcolor_graph_loads_total"
	famGraphLoadErrors   = "bitcolor_graph_load_errors_total"
	famGraphLoadSeconds  = "bitcolor_graph_load_duration_seconds"
	famGraphLoadBytes    = "bitcolor_graph_load_bytes_total"
	famShardMapMaps      = "bitcolor_shard_map_maps_total"
	famShardMapUnmaps    = "bitcolor_shard_map_unmaps_total"
	famShardMapResident  = "bitcolor_shard_map_resident_bytes"
	famPartitionCacheHit = "bitcolor_partition_cache_hits_total"
)

// engineDurationBuckets covers 100µs .. ~100s exponentially.
var engineDurationBuckets = []float64{
	1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60, 100,
}

// forwardWaitBuckets covers the DCT forwarding latency — the time a
// parked vertex waits for its lower-indexed neighbor's color to land.
// Waits are sub-microsecond when the owner is one drain behind and can
// reach milliseconds when a worker stalls on a long chain.
var forwardWaitBuckets = []float64{
	1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1,
}

// graphLoadBuckets covers 10µs (a small mapped file) .. ~30s (a
// GD-scale edge-list parse on cold storage).
var graphLoadBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 30,
}

func registerStandardFamilies(r *Registry) {
	r.RegisterCounter(famSpans, "Finished tracing spans.", "")
	r.RegisterCounter(famRuns, "Coloring engine runs started.", "engine")
	r.RegisterCounter(famRunErrors, "Coloring engine runs that returned an error (incl. cancellation).", "engine")
	r.RegisterCounter(famRounds, "Speculation/repair rounds executed.", "engine")
	r.RegisterCounter(famConflictsFound, "Equal-colored adjacent pairs observed during detection.", "engine")
	r.RegisterCounter(famConflictsRepaired, "Vertices re-colored to resolve conflicts.", "engine")
	r.RegisterCounter(famWorkerVertices, "Speculation vertices claimed from the shared cursor, per worker.", "worker")
	r.RegisterCounter(famWorkerBlocks, "Dispatch blocks claimed from the shared cursor, per worker.", "worker")
	r.RegisterCounter(famWorkerSteals, "Blocks claimed beyond the static fair share, per worker.", "worker")
	r.RegisterCounter(famGatherHot, "Neighbor color reads served by the hot tier (HDC analog).", "")
	r.RegisterCounter(famGatherMerged, "Neighbor color reads merged into the last-touched 64-color block (MGR analog).", "")
	r.RegisterCounter(famGatherCold, "Cold 64-color block loads.", "")
	r.RegisterCounter(famGatherPruned, "Sorted adjacency tail entries skipped by uncolored-vertex pruning (PUV analog).", "")
	r.RegisterHistogram(famEngineSeconds, "Engine wall time per run.", "engine", engineDurationBuckets)
	r.RegisterGauge(famStageSeconds, "Last pipeline run's per-stage wall time.", "stage")
	r.RegisterCounter(famStageCancelled, "Pipeline stages cut short by cancellation.", "stage")
	r.RegisterGauge(famLastColors, "Colors used by the last run.", "engine")
	r.RegisterGauge(famLastWorkers, "Worker goroutines of the last run.", "")
	r.RegisterGauge(famLastHotThreshold, "Gather hot-tier threshold v_t of the last run.", "")
	r.RegisterCounter(famDCTDeferred, "Vertices parked on a DCT forwarding ring awaiting a pending neighbor color.", "")
	r.RegisterCounter(famDCTRetries, "Coloring attempts replayed from a DCT forwarding ring.", "")
	r.RegisterCounter(famDCTSpinWaits, "Fallback spin-wait yields taken by the DCT engine (ring full or drain stalled).", "")
	r.RegisterGauge(famDCTRingOccupancy, "Peak forwarding-ring occupancy of the last DCT run (max over workers).", "")
	r.RegisterHistogram(famDCTForwardWait, "Time a parked vertex waited for the awaited color to be forwarded.", "", forwardWaitBuckets)
	r.RegisterCounter(famShardVertices, "Interior vertices colored by the sharded engine, per shard.", "shard")
	r.RegisterGauge(famShardSeconds, "Last sharded run's interior-phase wall time, per shard (slowest worker).", "shard")
	r.RegisterGauge(famShardFrontier, "Boundary-frontier size of the last sharded run.", "")
	r.RegisterCounter(famShardCrossDefers, "Vertices deferred to the boundary frontier because a lower-indexed neighbor lives in another shard.", "")
	r.RegisterCounter(famGraphLoads, "Graph loads completed, by on-disk format.", "format")
	r.RegisterCounter(famGraphLoadErrors, "Graph loads that returned an error, by on-disk format.", "format")
	r.RegisterHistogram(famGraphLoadSeconds, "Graph load wall time (open through validated CSR), by on-disk format.", "format", graphLoadBuckets)
	r.RegisterCounter(famGraphLoadBytes, "On-disk bytes behind completed graph loads, by format.", "format")
	r.RegisterCounter(famShardMapMaps, "BCSR v3 shard/boundary sections mapped by out-of-core runs.", "")
	r.RegisterCounter(famShardMapUnmaps, "BCSR v3 shard/boundary sections retired (MADV_DONTNEED + unmap).", "")
	r.RegisterGauge(famShardMapResident, "Peak mapped shard-section bytes of the last out-of-core run.", "")
	r.RegisterCounter(famPartitionCacheHit, "Sharded runs that reused a BCSR v3 file's persisted partition instead of partitioning, by strategy.", "strategy")
}

// ObserveForwardWait records one DCT forwarding-latency sample: the time
// between parking a vertex on the ring and successfully coloring it after
// the awaited color landed. Nil-safe; the engine calls it only when an
// observer is live (the park timestamp is not even taken otherwise).
func (o *Observer) ObserveForwardWait(seconds float64) {
	if o == nil {
		return
	}
	o.reg.Histogram(famDCTForwardWait).Observe("", seconds)
}

// RecordRun folds one engine run's statistics into the metric families.
// The engine registry's instrumentation decorator calls it once per run,
// after the engine returns — never on the hot path.
func (o *Observer) RecordRun(engine string, colors int, d time.Duration, st metrics.RunStats, runErr error) {
	if o == nil {
		return
	}
	r := o.reg
	r.Counter(famRuns).Add(engine, 1)
	if runErr != nil {
		r.Counter(famRunErrors).Add(engine, 1)
		return
	}
	r.Counter(famRounds).Add(engine, int64(st.Rounds))
	r.Counter(famConflictsFound).Add(engine, st.ConflictsFound)
	r.Counter(famConflictsRepaired).Add(engine, st.ConflictsRepaired)
	for w, v := range st.VerticesPerWorker {
		r.Counter(famWorkerVertices).Add(fmt.Sprint(w), v)
	}
	fair := st.FairShareBlocks()
	for w, b := range st.BlocksPerWorker {
		r.Counter(famWorkerBlocks).Add(fmt.Sprint(w), b)
		if b > fair {
			r.Counter(famWorkerSteals).Add(fmt.Sprint(w), b-fair)
		}
	}
	r.Counter(famGatherHot).Add("", st.Gather.HotReads)
	r.Counter(famGatherMerged).Add("", st.Gather.MergedReads)
	r.Counter(famGatherCold).Add("", st.Gather.ColdBlockLoads)
	r.Counter(famGatherPruned).Add("", st.Gather.PrunedTail)
	r.Counter(famDCTDeferred).Add("", st.Deferred)
	r.Counter(famDCTRetries).Add("", st.DeferRetries)
	r.Counter(famDCTSpinWaits).Add("", st.SpinWaits)
	if st.Deferred > 0 || st.ForwardRingPeak > 0 {
		r.Gauge(famDCTRingOccupancy).Set("", float64(st.ForwardRingPeak))
	}
	if st.Shards > 0 {
		for s, v := range st.ShardVertices {
			r.Counter(famShardVertices).Add(fmt.Sprint(s), v)
		}
		for s, d := range st.ShardDurations {
			r.Gauge(famShardSeconds).Set(fmt.Sprint(s), d.Seconds())
		}
		r.Gauge(famShardFrontier).Set("", float64(st.FrontierVertices))
		r.Counter(famShardCrossDefers).Add("", st.CrossShardDefers)
	}
	r.Histogram(famEngineSeconds).Observe(engine, d.Seconds())
	r.Gauge(famLastColors).Set(engine, float64(colors))
	r.Gauge(famLastWorkers).Set("", float64(st.Workers))
	r.Gauge(famLastHotThreshold).Set("", float64(st.HotThreshold))
	o.Logger().Info("engine run",
		"engine", engine, "colors", colors, "duration", d,
		"rounds", st.Rounds, "workers", st.Workers,
		"conflicts_found", st.ConflictsFound, "conflicts_repaired", st.ConflictsRepaired)
}

// RecordShardMap folds one out-of-core run's shard-mapping activity into
// the metric families: sections mapped and retired during the run, and
// the run's peak mapped bytes (the bounded-residency high-water mark).
func (o *Observer) RecordShardMap(maps, unmaps, peakBytes int64) {
	if o == nil {
		return
	}
	o.reg.Counter(famShardMapMaps).Add("", maps)
	o.reg.Counter(famShardMapUnmaps).Add("", unmaps)
	if peakBytes > 0 {
		o.reg.Gauge(famShardMapResident).Set("", float64(peakBytes))
	}
}

// RecordPartitionCache counts one sharded run that skipped partitioning
// because a BCSR v3 file supplied the assignment (the content-hash
// partition cache hitting).
func (o *Observer) RecordPartitionCache(strategy string) {
	if o == nil {
		return
	}
	o.reg.Counter(famPartitionCacheHit).Add(strategy, 1)
}

// RecordStage folds one pipeline stage timing into the metric families.
func (o *Observer) RecordStage(stage string, d time.Duration, cancelled bool) {
	if o == nil {
		return
	}
	o.reg.Gauge(famStageSeconds).Set(stage, d.Seconds())
	if cancelled {
		o.reg.Counter(famStageCancelled).Add(stage, 1)
	}
	o.Logger().Info("pipeline stage", "stage", stage, "duration", d, "cancelled", cancelled)
}

// RecordGraphLoad folds one graph load into the metric families. format
// is the sniffed on-disk format label ("edgelist", "bcsr-v1", "bcsr-v2",
// "bcsr-v3", "bcsr-v3-mapped", "dimacs"), bytes the file size (<=0 when
// unknown or the load failed before stat).
func (o *Observer) RecordGraphLoad(format string, bytes int64, d time.Duration, err error) {
	if o == nil {
		return
	}
	r := o.reg
	r.Counter(famGraphLoads).Add(format, 1)
	if err != nil {
		r.Counter(famGraphLoadErrors).Add(format, 1)
		o.Logger().Info("graph load failed", "format", format, "duration", d, "error", err)
		return
	}
	r.Histogram(famGraphLoadSeconds).Observe(format, d.Seconds())
	if bytes > 0 {
		r.Counter(famGraphLoadBytes).Add(format, bytes)
	}
	o.Logger().Info("graph load", "format", format, "bytes", bytes, "duration", d)
}
