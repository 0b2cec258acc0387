package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitcolor/internal/metrics"
)

// The run registry is the multi-run introspection plane: every engine
// invocation carrying an Observer registers an in-flight RunRecord
// (engine, graph size, pool negotiation, live progress) and
// deregisters on completion into a bounded flight-recorder ring of
// RunSummary entries. The /debug/runs HTTP surface, the watchdog and
// the service layer all read from here; the engines only ever write
// through nil-safe RunRecord methods, so unobserved runs never touch
// the registry at all.

// DefaultFlightRecorderSize bounds the completed-run ring of the
// process-default registry.
const DefaultFlightRecorderSize = 64

// RunRegistry tracks in-flight runs and keeps the flight-recorder ring
// of the most recent completed ones. All methods are safe for
// concurrent use and nil-safe.
type RunRegistry struct {
	mu      sync.Mutex
	live    []*RunRecord // registration order
	ring    []RunSummary // oldest first, bounded by ringCap
	ringCap int
	seq     int64
}

var defaultRuns = &RunRegistry{ringCap: DefaultFlightRecorderSize}

// Runs returns the process-default run registry — the one the engine
// dispatch decorator registers into and the HTTP surface serves.
func Runs() *RunRegistry { return defaultRuns }

// NewRunRegistry returns an isolated registry (tests; the default
// registry's behavior with a custom ring bound).
func NewRunRegistry(ringCap int) *RunRegistry {
	if ringCap <= 0 {
		ringCap = DefaultFlightRecorderSize
	}
	return &RunRegistry{ringCap: ringCap}
}

// RunRecord is one in-flight run. The immutable identity fields are set
// at registration; everything mutable is either atomic (round) or
// guarded by mu — including the ShardSet attach/detach handshake that
// keeps scrapers off a pooled ShardSet once the run finishes and the
// set can be recycled.
type RunRecord struct {
	reg      *RunRegistry
	id       string
	runID    string
	engine   string
	vertices int64
	edges    int64
	start    time.Time
	deadline time.Time // zero when the run's context had none
	o        *Observer

	round atomic.Int64

	mu        sync.Mutex
	state     string // "queued" | "running"
	demand    int
	granted   int
	queueWait time.Duration
	shards    *ShardSet
	poolStat  func() PoolStatus
	done      bool

	// Watchdog bookkeeping (watchdog goroutine only, under mu).
	wdVertices       int64
	wdChanged        time.Time
	wdWarnedStall    bool
	wdWarnedDeadline bool
}

// Begin registers an in-flight run and returns its record. Returns nil
// (a valid no-op record) when the registry or observer is nil, so the
// dispatch decorator calls it unconditionally once an observer is
// resolved. The context contributes only its deadline (for the
// watchdog's deadline-fraction check).
func (rr *RunRegistry) Begin(ctx context.Context, o *Observer, engine string, vertices, edges int64) *RunRecord {
	if rr == nil || o == nil {
		return nil
	}
	rec := &RunRecord{
		reg:      rr,
		runID:    o.RunID(),
		engine:   engine,
		vertices: vertices,
		edges:    edges,
		start:    time.Now(),
		o:        o,
		state:    "running",
	}
	rec.wdChanged = rec.start
	if dl, ok := ctx.Deadline(); ok {
		rec.deadline = dl
	}
	rr.mu.Lock()
	rr.seq++
	rec.id = fmt.Sprintf("%s.%d", rec.runID, rr.seq)
	rr.live = append(rr.live, rec)
	inflight := len(rr.live)
	rr.mu.Unlock()
	if rr == defaultRuns {
		Plane().Gauge(famRunsInflight).Set("", float64(inflight))
	}
	return rec
}

// ID returns the registry-unique run identifier ("" on nil) — the
// /debug/runs/<id>/trace path segment. Distinct from the observer's
// RunID: one observer can cover several registered runs.
func (r *RunRecord) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Queued marks the record as waiting for pool admission. The dispatch
// decorator calls it before blocking on Acquire, so /debug/runs shows
// backpressured runs in state "queued".
func (r *RunRecord) Queued(demand int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.state = "queued"
	r.demand = demand
	r.mu.Unlock()
}

// Admitted records the pool negotiation outcome and flips the record to
// "running". pool, when non-nil, is sampled by /debug/runs for live
// queue depth alongside this run.
func (r *RunRecord) Admitted(demand, granted int, wait time.Duration, pool func() PoolStatus) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.state = "running"
	r.demand = demand
	r.granted = granted
	r.queueWait = wait
	r.poolStat = pool
	r.mu.Unlock()
}

// AttachShards hands the run's per-worker counter shards to the record
// and arms their live mirrors, making Progress a real mid-run read.
// The engine calls it before spawning workers; nil-safe, so the call
// costs unobserved runs nothing beyond the nil check.
func (r *RunRecord) AttachShards(ss *ShardSet) {
	if r == nil || ss == nil {
		return
	}
	ss.EnableLive()
	r.mu.Lock()
	r.shards = ss
	r.mu.Unlock()
}

// SetRound publishes the run's current speculation/repair round.
// Nil-safe, lock-free; engines call it at sweep boundaries.
func (r *RunRecord) SetRound(n int) {
	if r == nil {
		return
	}
	r.round.Store(int64(n))
}

// LaneProgress is one worker lane's live counters.
type LaneProgress struct {
	Worker   int   `json:"worker"`
	Vertices int64 `json:"vertices"`
	Blocks   int64 `json:"blocks"`
}

// Progress is a point-in-time snapshot of one run's advancement. Every
// field is cumulative within the run, so consecutive snapshots are
// monotonically non-decreasing.
type Progress struct {
	State             string         `json:"state"`
	Round             int64          `json:"round"`
	Vertices          int64          `json:"vertices"`
	Blocks            int64          `json:"blocks"`
	ConflictsFound    int64          `json:"conflicts_found"`
	ConflictsRepaired int64          `json:"conflicts_repaired"`
	Deferred          int64          `json:"deferred"`
	Lanes             []LaneProgress `json:"lanes,omitempty"`
}

// Progress snapshots the run's live counters. Safe from any goroutine
// at any time; after the run finishes it keeps returning the final
// totals (folded from RunStats, never from the recycled ShardSet).
func (r *RunRecord) Progress() Progress {
	if r == nil {
		return Progress{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progressLocked()
}

// progressLocked reads the live mirrors (or the frozen final snapshot)
// under r.mu — the lock is what keeps the read off a ShardSet that
// Finish has already released for recycling.
func (r *RunRecord) progressLocked() Progress {
	p := Progress{State: r.state, Round: r.round.Load()}
	ss := r.shards
	if ss == nil {
		return p
	}
	p.Lanes = make([]LaneProgress, ss.Workers())
	for w := range p.Lanes {
		sh := ss.Shard(w)
		lane := LaneProgress{Worker: w, Vertices: sh.Live(CtrVertices), Blocks: sh.Live(CtrBlocks)}
		p.Lanes[w] = lane
		p.Vertices += lane.Vertices
		p.Blocks += lane.Blocks
	}
	p.ConflictsFound = ss.LiveTotal(CtrConflictsFound)
	p.ConflictsRepaired = ss.LiveTotal(CtrConflictsRepaired)
	p.Deferred = ss.LiveTotal(CtrDeferred)
	return p
}

// RunSummary is one completed run in the flight-recorder ring.
type RunSummary struct {
	ID                string    `json:"id"`
	RunID             string    `json:"run_id"`
	Engine            string    `json:"engine"`
	Vertices          int64     `json:"vertices"`
	Edges             int64     `json:"edges"`
	Start             time.Time `json:"start"`
	DurationMS        float64   `json:"duration_ms"`
	Status            string    `json:"status"` // ok | cancelled | error
	Error             string    `json:"error,omitempty"`
	Colors            int       `json:"colors"`
	Rounds            int       `json:"rounds"`
	Workers           int       `json:"workers"`
	ConflictsFound    int64     `json:"conflicts_found"`
	ConflictsRepaired int64     `json:"conflicts_repaired"`
	Demand            int       `json:"demand,omitempty"`
	Granted           int       `json:"granted,omitempty"`
	QueueWaitMS       float64   `json:"queue_wait_ms,omitempty"`

	o *Observer
}

// Observer returns the completed run's observer, kept so the trace of a
// recorded run stays pullable after completion.
func (s RunSummary) Observer() *Observer { return s.o }

// Finish deregisters the run into the flight-recorder ring. The final
// progress totals come from the folded RunStats (always >= the last
// live snapshot — the mirrors trail the plain counters) and the
// ShardSet reference is dropped under the lock, so a scraper can never
// read a recycled set. The dispatch decorator calls Finish before
// returning, i.e. strictly before the caller could reuse the Scratch
// that owns the shards.
func (r *RunRecord) Finish(colors int, st metrics.RunStats, runErr error) {
	if r == nil {
		return
	}
	end := time.Now()
	status := "ok"
	if runErr != nil {
		status = "error"
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			status = "cancelled"
		}
	}
	sum := RunSummary{
		ID:                r.id,
		RunID:             r.runID,
		Engine:            r.engine,
		Vertices:          r.vertices,
		Edges:             r.edges,
		Start:             r.start,
		DurationMS:        float64(end.Sub(r.start).Nanoseconds()) / 1e6,
		Status:            status,
		Colors:            colors,
		Rounds:            st.Rounds,
		Workers:           st.Workers,
		ConflictsFound:    st.ConflictsFound,
		ConflictsRepaired: st.ConflictsRepaired,
		o:                 r.o,
	}
	if runErr != nil {
		sum.Error = runErr.Error()
	}
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.shards = nil
	r.poolStat = nil
	sum.Demand = r.demand
	sum.Granted = r.granted
	sum.QueueWaitMS = float64(r.queueWait.Nanoseconds()) / 1e6
	r.mu.Unlock()

	rr := r.reg
	rr.mu.Lock()
	for i, rec := range rr.live {
		if rec == r {
			rr.live = append(rr.live[:i], rr.live[i+1:]...)
			break
		}
	}
	rr.ring = append(rr.ring, sum)
	if len(rr.ring) > rr.ringCap {
		rr.ring = rr.ring[len(rr.ring)-rr.ringCap:]
	}
	inflight := len(rr.live)
	rr.mu.Unlock()
	if rr == defaultRuns {
		Plane().Gauge(famRunsInflight).Set("", float64(inflight))
		Plane().Counter(famRunsCompleted).Add(status, 1)
	}
}

// LiveRun is one in-flight run's introspection view — the /debug/runs
// "live" array element.
type LiveRun struct {
	ID          string      `json:"id"`
	RunID       string      `json:"run_id"`
	Engine      string      `json:"engine"`
	Vertices    int64       `json:"vertices"`
	Edges       int64       `json:"edges"`
	Start       time.Time   `json:"start"`
	ElapsedMS   float64     `json:"elapsed_ms"`
	DeadlineMS  float64     `json:"deadline_ms_left,omitempty"`
	Demand      int         `json:"demand,omitempty"`
	Granted     int         `json:"granted,omitempty"`
	QueueWaitMS float64     `json:"queue_wait_ms,omitempty"`
	Progress    Progress    `json:"progress"`
	Pool        *PoolStatus `json:"pool,omitempty"`
}

// LiveRuns snapshots every in-flight run in registration order.
func (rr *RunRegistry) LiveRuns() []LiveRun {
	if rr == nil {
		return nil
	}
	now := time.Now()
	rr.mu.Lock()
	recs := append([]*RunRecord(nil), rr.live...)
	rr.mu.Unlock()
	out := make([]LiveRun, 0, len(recs))
	for _, r := range recs {
		r.mu.Lock()
		if r.done {
			// Finished after the copy above: its shards are gone, and
			// showing it would report zero progress for a live run.
			r.mu.Unlock()
			continue
		}
		lr := LiveRun{
			ID:          r.id,
			RunID:       r.runID,
			Engine:      r.engine,
			Vertices:    r.vertices,
			Edges:       r.edges,
			Start:       r.start,
			ElapsedMS:   float64(now.Sub(r.start).Nanoseconds()) / 1e6,
			Demand:      r.demand,
			Granted:     r.granted,
			QueueWaitMS: float64(r.queueWait.Nanoseconds()) / 1e6,
			Progress:    r.progressLocked(),
		}
		if !r.deadline.IsZero() {
			lr.DeadlineMS = float64(r.deadline.Sub(now).Nanoseconds()) / 1e6
		}
		if r.poolStat != nil {
			st := r.poolStat()
			lr.Pool = &st
		}
		r.mu.Unlock()
		out = append(out, lr)
	}
	return out
}

// Recent returns the flight-recorder ring, most recent first.
func (rr *RunRegistry) Recent() []RunSummary {
	if rr == nil {
		return nil
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	out := make([]RunSummary, len(rr.ring))
	for i, s := range rr.ring {
		out[len(rr.ring)-1-i] = s
	}
	return out
}

// Observer resolves a run ID (live or recorded) to its observer — the
// /debug/runs/<id>/trace lookup. Nil when the ID is unknown.
func (rr *RunRegistry) Observer(id string) *Observer {
	if rr == nil {
		return nil
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for _, r := range rr.live {
		if r.id == id {
			return r.o
		}
	}
	for _, s := range rr.ring {
		if s.ID == id {
			return s.o
		}
	}
	return nil
}

// ProgressOf resolves a live run ID to its progress snapshot (false
// when the run is not in flight).
func (rr *RunRegistry) ProgressOf(id string) (Progress, bool) {
	if rr == nil {
		return Progress{}, false
	}
	rr.mu.Lock()
	var rec *RunRecord
	for _, r := range rr.live {
		if r.id == id {
			rec = r
			break
		}
	}
	rr.mu.Unlock()
	if rec == nil {
		return Progress{}, false
	}
	return rec.Progress(), true
}

// WatchdogConfig tunes the slow-run watchdog.
type WatchdogConfig struct {
	// Interval between scans (default 500ms).
	Interval time.Duration
	// DeadlineFraction warns when a deadline-carrying run has consumed
	// more than this fraction of its budget (0 disables; e.g. 0.8).
	DeadlineFraction float64
	// Stall warns when a running run's live vertex count has not moved
	// for at least this long (0 disables).
	Stall time.Duration
}

// StartWatchdog scans the registry's live runs every Interval and logs
// a run_id-stamped warning (through each run's own observer logger)
// when a run crosses the deadline-fraction or progress-stall
// threshold. Each condition warns once per run. Returns a stop func.
func (rr *RunRegistry) StartWatchdog(cfg WatchdogConfig) (stop func()) {
	if rr == nil {
		return func() {}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				rr.mu.Lock()
				recs := append([]*RunRecord(nil), rr.live...)
				rr.mu.Unlock()
				for _, r := range recs {
					r.watchdogCheck(now, cfg)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// watchdogCheck applies both thresholds to one run.
func (r *RunRecord) watchdogCheck(now time.Time, cfg WatchdogConfig) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	p := r.progressLocked()
	state := r.state
	var warnDeadline, warnStall bool
	if cfg.DeadlineFraction > 0 && !r.deadline.IsZero() && !r.wdWarnedDeadline {
		budget := r.deadline.Sub(r.start)
		if budget > 0 && now.Sub(r.start) > time.Duration(float64(budget)*cfg.DeadlineFraction) {
			r.wdWarnedDeadline = true
			warnDeadline = true
		}
	}
	var stalledFor time.Duration
	if cfg.Stall > 0 && state == "running" {
		if p.Vertices != r.wdVertices {
			r.wdVertices = p.Vertices
			r.wdChanged = now
			r.wdWarnedStall = false
		} else if !r.wdWarnedStall && now.Sub(r.wdChanged) >= cfg.Stall {
			r.wdWarnedStall = true
			warnStall = true
			stalledFor = now.Sub(r.wdChanged)
		}
	}
	elapsed := now.Sub(r.start)
	engine, o := r.engine, r.o
	deadline := r.deadline
	r.mu.Unlock()

	if warnDeadline {
		o.Logger().Warn("slow run: deadline budget nearly consumed",
			"engine", engine, "elapsed", elapsed,
			"deadline_in", deadline.Sub(now),
			"vertices", p.Vertices, "round", p.Round, "state", state)
	}
	if warnStall {
		o.Logger().Warn("slow run: progress stalled",
			"engine", engine, "elapsed", elapsed,
			"stalled_for", stalledFor,
			"vertices", p.Vertices, "round", p.Round, "state", state)
	}
}
