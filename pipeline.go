package bitcolor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/obs"
)

// Pipeline composes the full coloring flow — Preprocess → Color →
// Improve → Verify — behind one call, with per-stage wall-clock timings
// and automatic un-permutation of colors back to the caller's original
// vertex IDs. It is the entry point a service layer calls: one ctx
// cancels or deadlines the whole flow, and a partial result with the
// stages completed so far comes back even on error. An observer
// attached to ctx (WithObserver) receives one span per stage plus the
// engine's own span tree and per-stage metric families. Loading the
// input graph is deliberately outside the pipeline — use
// OpenGraphFileContext under the same ctx and the load shows up next to
// the stage spans as "graph/load" with its own metric families.
type Pipeline struct {
	// SkipPreprocess runs the coloring on g as-is. By default the
	// pipeline applies DBG reordering + edge sorting first (what the
	// engines are tuned for) and maps the colors back afterwards.
	SkipPreprocess bool
	// PreprocessWorkers bounds the preprocessing parallelism
	// (<=0: GOMAXPROCS).
	PreprocessWorkers int
	// Color selects and configures the engine (registry dispatch).
	Color ColorOptions
	// Improve optionally post-processes the coloring; the zero value
	// skips the stage entirely.
	Improve ImproveOptions
}

// StageTiming is one pipeline stage's wall-clock measurement.
type StageTiming struct {
	// Name is "preprocess", "color", "improve" or "verify".
	Name string
	// Duration is the stage's wall time. For a cancelled stage it is the
	// time spent until the cancellation was noticed.
	Duration time.Duration
	// Cancelled marks a stage that was cut short by ctx cancellation or
	// deadline instead of completing.
	Cancelled bool
}

// PipelineResult is a pipeline run's outcome.
type PipelineResult struct {
	// Result holds the coloring indexed by the ORIGINAL vertex IDs of
	// the input graph (the preprocessing permutation is undone).
	Result *Result
	// Stats is the engine's run statistics (registry contract).
	Stats RunStats
	// Stages lists the stages in execution order with their wall-clock
	// times. On error it covers the stages that finished PLUS the
	// in-flight stage, marked Cancelled when ctx cut it short — so
	// partial-progress reports account for all time spent.
	Stages []StageTiming
	// Total is the summed stage wall time.
	Total time.Duration
}

// StageDuration returns the named stage's wall time (0 if it did not
// run).
func (r *PipelineResult) StageDuration(name string) time.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}

// Run executes the pipeline on g under ctx. On error (including
// cancellation) it returns the error together with a non-nil
// PipelineResult carrying the stages that ran — the in-flight stage's
// elapsed time included, marked cancelled — and any statistics
// collected so far, so callers can report partial progress; Result is
// only set when the run finished.
func (p Pipeline) Run(ctx context.Context, g *Graph) (*PipelineResult, error) {
	o := obs.FromContext(ctx)
	root := o.StartSpan("pipeline").
		Attr("vertices", int64(g.NumVertices())).
		Attr("edges", g.NumEdges()).
		Attr("engine", p.Color.Engine.String())
	defer root.End()

	pr := &PipelineResult{}
	// stage records a finished or cut-short stage: the timing lands in
	// pr.Stages either way, the span carries cancelled=true when ctx
	// ended the stage early, and the observer's per-stage families
	// update.
	stage := func(name string, start time.Time, sp *obs.Span, err error) {
		d := time.Since(start)
		cancelled := err != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		pr.Stages = append(pr.Stages, StageTiming{Name: name, Duration: d, Cancelled: cancelled})
		pr.Total += d
		if cancelled {
			sp.Attr("cancelled", true)
		}
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End()
		o.RecordStage(name, d, cancelled)
	}

	colored := g
	var perm []VertexID
	if !p.SkipPreprocess {
		if err := ctx.Err(); err != nil {
			return pr, err
		}
		sp := root.Child("preprocess")
		start := time.Now()
		prepared, newID, err := PreprocessWithPermutation(g, WithPreprocessParallelism(p.PreprocessWorkers))
		stage("preprocess", start, sp, err)
		if err != nil {
			return pr, fmt.Errorf("bitcolor: pipeline preprocess: %w", err)
		}
		colored, perm = prepared, newID
	}

	sp := root.Child("color")
	start := time.Now()
	res, st, err := ColorContext(ctx, colored, p.Color)
	pr.Stats = st
	stage("color", start, sp, err)
	if err != nil {
		return pr, err
	}

	if p.Improve != (ImproveOptions{}) {
		sp = root.Child("improve")
		start = time.Now()
		res, err = ImproveContext(ctx, colored, res, p.Improve)
		stage("improve", start, sp, err)
		if err != nil {
			return pr, err
		}
	}

	// Un-permute: colors were assigned on the reordered graph, where the
	// original vertex old sits at index perm[old].
	if perm != nil {
		orig := make([]uint16, len(res.Colors))
		for old, newID := range perm {
			orig[old] = res.Colors[newID]
		}
		res = &Result{Colors: orig, NumColors: res.NumColors, Stats: res.Stats}
	}

	// Verify against the ORIGINAL graph — this also proves the
	// un-permutation is consistent, since a misapplied permutation would
	// break properness on g. The check splits across the color run's
	// workers, as ColorContext's does.
	sp = root.Child("verify")
	start = time.Now()
	err = coloring.VerifyParallel(g, res.Colors, verifyWorkers(p.Color, st))
	stage("verify", start, sp, err)
	if err != nil {
		return pr, fmt.Errorf("bitcolor: pipeline produced an invalid coloring: %w", err)
	}

	pr.Result = res
	return pr, nil
}
