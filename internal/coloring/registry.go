package coloring

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// This file is the engine registry: the single point where every software
// coloring algorithm is adapted onto one uniform contract. The public API
// (bitcolor.Color/ColorContext/Pipeline), the CLIs and the experiment
// harness all dispatch through Lookup instead of maintaining their own
// per-engine switches, so adding an engine means writing it and
// registering it here — nothing else in the tree changes.

// EngineFunc is the uniform engine contract. Implementations must:
//   - honor ctx: return ctx.Err() promptly on cancellation (sequential
//     engines poll every ctxStride vertices, parallel ones at block-claim
//     and round boundaries) and never leave shared state poisoned — all
//     mutable state is private to the call, and the input graph is
//     read-only;
//   - read the palette bound from opts.MaxColors (<=0 means
//     MaxColorsDefault) and ignore options that do not apply;
//   - fill the metrics.RunStats fields their subsystems produce and leave
//     the rest zero-valued.
type EngineFunc func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error)

// EngineInfo describes one registered engine.
type EngineInfo struct {
	// Name is the stable CLI/API identifier (lower-case, no spaces).
	Name string
	// Parallel reports whether the engine runs worker goroutines and
	// honors Options.Workers.
	Parallel bool
	// Seeded reports whether the engine is randomized via Options.Seed.
	Seeded bool
	// Stats summarizes which RunStats fields the engine fills ("-" for
	// none) — the source of the README engine table's stats column.
	Stats string
	// Description is a one-line summary for docs and CLI usage strings.
	Description string
	// Run executes the engine.
	Run EngineFunc
	// Demand reports how many pool slots a run with these options will
	// occupy (its goroutine count). Nil defaults to the resolved worker
	// count for parallel engines and 1 otherwise — only engines whose
	// concurrency is not Workers (the sharded engine runs shards ×
	// workers goroutines) need to set it.
	Demand func(g *graph.CSR, opts Options) int
	// Grant adapts the options when the pool granted fewer slots than
	// Demand asked for (the pool cap is smaller than the request). Nil
	// defaults to Workers = granted for parallel engines.
	Grant func(opts Options, granted int) Options
}

// registry holds engines in registration order; the order is part of the
// contract — bitcolor.Engine constants index into it, and a test enforces
// the correspondence.
var (
	registry      []EngineInfo
	registryIndex = map[string]int{}
)

// Register adds an engine to the registry. It panics on a duplicate or
// empty name or a nil Run — registration happens in init, so a bad entry
// is a programming error that should fail loudly at startup. Every
// engine is wrapped by the instrumentation decorator at registration,
// so tracing and metric folding are uniform across engines without any
// per-engine code.
func Register(info EngineInfo) {
	if info.Name == "" || info.Run == nil {
		panic("coloring: Register needs a name and a Run func")
	}
	if _, dup := registryIndex[info.Name]; dup {
		panic(fmt.Sprintf("coloring: engine %q registered twice", info.Name))
	}
	// Admission wraps instrumentation so pool queue time is never billed
	// to the engine span or its duration metrics — a queued run has not
	// started yet.
	info.Run = admitted(info, instrument(info.Name, info.Run))
	registryIndex[info.Name] = len(registry)
	registry = append(registry, info)
}

// admitted is the pool-admission and run-registration decorator: with
// Options.Pool set, the run blocks (FIFO) until the engine's slot
// demand is free, runs, and releases. A pool smaller than the demand
// grants what it has and the run shrinks its worker count to match, so
// no request ever deadlocks on an oversized ask.
//
// When an observer is present (Options.Obs or the context) the run is
// additionally registered in the live run registry for the whole
// admit→run lifecycle: /debug/runs shows it as "queued" while it waits
// for slots and "running" with live progress after, and Finish
// deregisters it into the flight-recorder ring — strictly before the
// pool slots are released, so a recycled Scratch can never be scraped
// under the old run's identity. Observer-less runs skip registration
// entirely; without a pool either, the only cost is two nil checks.
func admitted(info EngineInfo, run EngineFunc) EngineFunc {
	return func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
		o := opts.Obs
		if o == nil {
			o = obs.FromContext(ctx)
		}
		p := opts.Pool
		if o == nil && p == nil {
			return run(ctx, g, opts)
		}
		opts.Obs = o // instrument reuses the resolution
		n, e := runSize(g, opts)
		rec := obs.Runs().Begin(ctx, o, info.Name, int64(n), e)
		opts.Run = rec
		if p == nil {
			res, st, err := run(ctx, g, opts)
			rec.Finish(numColors(res), st, err)
			return res, st, err
		}
		want := 1
		switch {
		case info.Demand != nil:
			want = info.Demand(g, opts)
		case info.Parallel:
			want = resolveWorkers(opts.Workers, n)
		}
		rec.Queued(want)
		var queuedAt time.Time
		if rec != nil {
			queuedAt = time.Now()
		}
		granted, err := p.AcquireTagged(ctx, want, info.Name)
		if err != nil {
			rec.Finish(0, metrics.RunStats{}, err)
			return nil, metrics.RunStats{}, err
		}
		defer p.Release(granted)
		if rec != nil {
			rec.Admitted(want, granted, time.Since(queuedAt), p.Stats)
		}
		if granted < want {
			if info.Grant != nil {
				opts = info.Grant(opts, granted)
			} else if info.Parallel {
				opts.Workers = granted
			}
		}
		res, st, err := run(ctx, g, opts)
		rec.Finish(numColors(res), st, err)
		return res, st, err
	}
}

// numColors extracts the color count from a possibly-nil result.
func numColors(res *Result) int {
	if res == nil {
		return 0
	}
	return res.NumColors
}

// instrument is the uniform EngineFunc decorator: it resolves the
// observer (explicit Options.Obs first, then the context), opens the
// engine span, hands both to the engine via Options, and folds the
// run's statistics into the observer's metric families afterwards.
// Without an observer the only cost is one nil check per run.
func instrument(name string, run EngineFunc) EngineFunc {
	return func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
		o := opts.Obs
		if o == nil {
			o = obs.FromContext(ctx)
		}
		if o == nil {
			return run(ctx, g, opts)
		}
		opts.Obs = o
		n, e := runSize(g, opts)
		sp := o.StartSpan("engine/"+name).
			Attr("vertices", int64(n)).
			Attr("edges", e)
		opts.Span = sp
		start := time.Now()
		res, st, err := run(ctx, g, opts)
		d := time.Since(start)
		sp.Attr("workers", int64(st.Workers)).
			Attr("rounds", int64(st.Rounds)).
			Attr("conflicts_found", st.ConflictsFound).
			Attr("conflicts_repaired", st.ConflictsRepaired)
		colors := 0
		if res != nil {
			colors = res.NumColors
			sp.Attr("colors", int64(colors))
		}
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End()
		o.RecordRun(name, colors, d, st, err)
		return res, st, err
	}
}

// runSize is the vertex and adjacency-entry count a run is sized and
// recorded by: the shard file's for an out-of-core run, whose graph
// argument is ignored and may be nil, and the graph's otherwise.
func runSize(g *graph.CSR, opts Options) (int, int64) {
	if opts.streamed() {
		return opts.ShardFile.NumVertices(), opts.ShardFile.NumEdges()
	}
	return g.NumVertices(), g.NumEdges()
}

// Lookup resolves an engine by name.
func Lookup(name string) (EngineInfo, bool) {
	i, ok := registryIndex[name]
	if !ok {
		return EngineInfo{}, false
	}
	return registry[i], true
}

// LookupIndex resolves an engine by registration index (the value of the
// corresponding bitcolor.Engine constant).
func LookupIndex(i int) (EngineInfo, bool) {
	if i < 0 || i >= len(registry) {
		return EngineInfo{}, false
	}
	return registry[i], true
}

// Index returns the registration index for a name (-1 if unknown).
func Index(name string) int {
	if i, ok := registryIndex[name]; ok {
		return i
	}
	return -1
}

// Engines returns a copy of the registry in registration order.
func Engines() []EngineInfo {
	out := make([]EngineInfo, len(registry))
	copy(out, registry)
	return out
}

// EngineNames returns the registered names in registration order.
func EngineNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// resolveWorkers mirrors the parallel engines' worker-count defaulting so
// adapters can report the effective count in RunStats.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

func init() {
	// Registration order mirrors the bitcolor.Engine iota order; the
	// api-level round-trip test enforces the correspondence.
	Register(EngineInfo{
		Name:        "greedy",
		Stats:       "-",
		Description: "paper Algorithm 1: first-fit with flag-array color scan",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := Greedy(ctx, g, opts.maxColors())
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "bitwise",
		Stats:       "-",
		Description: "paper Algorithm 2: bit-vector state, (^s)&(s+1) first-fit, uncolored-vertex pruning",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := BitwiseGreedyScratch(ctx, g, opts.maxColors(), true, opts.Scratch)
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "dsatur",
		Stats:       "-",
		Description: "Brélaz saturation-degree heuristic",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := DSATUR(ctx, g, opts.maxColors())
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "welshpowell",
		Stats:       "-",
		Description: "descending-degree greedy",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := WelshPowell(ctx, g, opts.maxColors())
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "smallestlast",
		Stats:       "-",
		Description: "degeneracy-order greedy",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := SmallestLast(ctx, g, opts.maxColors())
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "jonesplassmann",
		Parallel:    true,
		Seeded:      true,
		Stats:       "workers, rounds",
		Description: "random-priority independent sets (the GPU baseline's algorithm)",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, rounds, err := JonesPlassmann(ctx, g, opts.maxColors(), opts.Seed, opts.Workers)
			st := metrics.RunStats{Workers: resolveWorkers(opts.Workers, g.NumVertices()), Rounds: rounds}
			return res, st, err
		},
	})
	Register(EngineInfo{
		Name:        "lubymis",
		Seeded:      true,
		Stats:       "rounds",
		Description: "one maximal independent set per color",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, rounds, err := LubyMIS(ctx, g, opts.maxColors(), opts.Seed)
			return res, metrics.RunStats{Rounds: rounds}, err
		},
	})
	Register(EngineInfo{
		Name:        "rlf",
		Stats:       "-",
		Description: "Recursive Largest First (best quality, quadratic)",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			res, err := RLF(ctx, g, opts.maxColors())
			return res, metrics.RunStats{}, err
		},
	})
	Register(EngineInfo{
		Name:        "speculative",
		Parallel:    true,
		Stats:       "workers, rounds, conflicts, work split, gather",
		Description: "Gebremedhin–Manne speculation with re-round conflict repair",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			return SpeculativeOpts(ctx, g, opts.maxColors(), opts)
		},
	})
	Register(EngineInfo{
		Name:        "parallelbitwise",
		Parallel:    true,
		Stats:       "workers, rounds, conflicts, work split, gather",
		Description: "bit-wise first-fit fused into speculative parallelism with in-place repair",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			return ParallelBitwiseOpts(ctx, g, opts.maxColors(), opts)
		},
	})
	Register(EngineInfo{
		Name:        "dct",
		Parallel:    true,
		Stats:       "workers, deferred, work split, gather",
		Description: "single-pass owner-computes bit-wise coloring with DCT color forwarding — deterministic, identical to greedy at any worker count",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			return DCTOpts(ctx, g, opts.maxColors(), opts)
		},
	})
	Register(EngineInfo{
		Name:        "sharded",
		Parallel:    true,
		Stats:       "workers, shards, boundary, deferred, work split, gather",
		Description: "partitioned multi-card DCT: per-shard interior coloring plus one boundary-frontier phase in core, one ordered pass over range shards out of core — deterministic, identical to greedy at any shard and worker count",
		Run: func(ctx context.Context, g *graph.CSR, opts Options) (*Result, metrics.RunStats, error) {
			return ShardedOpts(ctx, g, opts.maxColors(), opts)
		},
		// The interior phase runs shards × workers goroutines, so the
		// pool demand is the product, and a short grant shrinks the
		// per-shard worker count (never the shard count — partitioning
		// is part of the result's identity).
		Demand: func(g *graph.CSR, opts Options) int {
			n, _ := runSize(g, opts)
			if opts.streamed() {
				// A streamed run never has more than its residency bound
				// of shards active, so that — not the shard count — is
				// the concurrency it asks the pool for.
				return resolveWorkers(opts.Workers, n) * streamResidency(opts)
			}
			shards := opts.Shards
			if shards <= 0 {
				shards = 1
			}
			if n > 0 && shards > n {
				shards = n
			}
			return resolveWorkers(opts.Workers, n) * shards
		},
		Grant: func(opts Options, granted int) Options {
			if opts.streamed() {
				opts.Workers = max(1, granted/streamResidency(opts))
				return opts
			}
			shards := opts.Shards
			if shards <= 0 {
				shards = 1
			}
			opts.Workers = max(1, granted/shards)
			return opts
		},
	})
}
