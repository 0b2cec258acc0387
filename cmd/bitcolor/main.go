// Command bitcolor colors a graph with a chosen engine: either a
// software algorithm or the simulated BitColor accelerator.
//
// Usage:
//
//	bitcolor -dataset GD -engine bitwise
//	bitcolor -input graph.txt -engine accelerator -parallelism 16
//	bitcolor -input graph.bcsr -engine dsatur -maxcolors 256
//	bitcolor -dataset CL -engine parallelbitwise -timeout 30s
//	bitcolor -input graph.bcsr -engine sharded -outofcore -resident 2
//
// Software-engine runs are cancellable: Ctrl-C (SIGINT) or -timeout
// aborts the run promptly and prints the stages that completed instead
// of dying mid-flight.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"bitcolor"
	"bitcolor/internal/obs"
)

// startProfiles begins CPU profiling into dir/cpu.pprof and returns a
// stop func that also snapshots dir/heap.pprof. dir == "" makes both a
// no-op.
func startProfiles(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stopCPU, err := obs.StartCPUProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := stopCPU(); err != nil {
			return err
		}
		return obs.WriteHeapProfile(filepath.Join(dir, "heap.pprof"))
	}, nil
}

// runConfig carries every CLI knob; flags map onto it 1:1.
type runConfig struct {
	input       string // graph file (SNAP edge list or .bcsr)
	dataset     string // synthetic dataset abbreviation
	engine      string // engine name (registry) or "accelerator"
	parallelism int    // accelerator BWPE count
	workers     int    // host-parallel goroutines
	shards      int    // sharded-engine partition count
	partition   string // sharded-engine partition strategy
	outOfCore   bool   // stream a BCSR v3 input shard by shard
	resident    int    // out-of-core resident-shard bound
	cacheSize   int    // HVC capacity override
	maxColors   int    // palette size
	seed        int64
	noPrep      bool // skip DBG reordering + edge sorting
	verbose     bool
	timeline    string // accelerator timeline CSV path
	colorsOut   string // coloring output path
	listen      string // observability HTTP endpoint address
	pprofDir    string // CPU/heap profile output directory
	traceOut    string // Chrome trace_event JSON output path
	runlog      string // structured JSON run-log path ("-" = stderr)

	wdInterval     time.Duration // watchdog scan interval
	wdDeadlineFrac float64       // watchdog deadline-budget fraction (0 = off)
	wdStall        time.Duration // watchdog progress-stall bound (0 = off)
}

// observing reports whether the run needs a live Observer.
func (c runConfig) observing() bool {
	return c.listen != "" || c.traceOut != "" || c.runlog != ""
}

// watchdogOn reports whether any watchdog condition is armed.
func (c runConfig) watchdogOn() bool { return c.wdDeadlineFrac > 0 || c.wdStall > 0 }

func main() {
	var cfg runConfig
	engineUsage := "engine: " + strings.Join(bitcolor.EngineNames(), " | ") + " | accelerator"
	flag.StringVar(&cfg.input, "input", "", "graph file (SNAP edge list, .col, or .bcsr binary v1/v2/v3 — one-shard v3 files are mmap'd zero-copy)")
	flag.StringVar(&cfg.dataset, "dataset", "", "synthetic dataset abbreviation (EF, GD, CD, CA, CL, RC, RP, RT, CO, CF)")
	flag.StringVar(&cfg.engine, "engine", "bitwise", engineUsage)
	flag.IntVar(&cfg.parallelism, "parallelism", 16, "BWPE count for the accelerator engine (power of two)")
	flag.IntVar(&cfg.workers, "workers", 0, "goroutines for the host-parallel engines (jonesplassmann, speculative, parallelbitwise, dct, sharded; 0 = GOMAXPROCS)")
	flag.IntVar(&cfg.shards, "shards", 0, "partition count for the sharded engine (0/1 = single shard, plain DCT)")
	flag.StringVar(&cfg.partition, "partition", "", "partition strategy for the sharded engine: ranges (default) | labelprop")
	flag.BoolVar(&cfg.outOfCore, "outofcore", false, "stream a range-partitioned BCSR v3 -input shard by shard in index order instead of materializing it (sharded engine only; a labelprop file colors in core without this flag)")
	flag.IntVar(&cfg.resident, "resident", 0, "out-of-core resident-shard bound (0 = one shard at a time; clamped to the shard count)")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "HVC capacity in vertices (0 = auto-scale to ~1/8 of the graph; paper hardware: 512K)")
	flag.IntVar(&cfg.maxColors, "maxcolors", bitcolor.MaxColorsDefault, "palette size")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for generators and randomized engines")
	flag.BoolVar(&cfg.noPrep, "no-preprocess", false, "skip DBG reordering + edge sorting")
	flag.StringVar(&cfg.timeline, "timeline", "", "write the accelerator's per-vertex task timeline to this CSV file")
	flag.StringVar(&cfg.colorsOut, "colors", "", "write the final coloring (vertex color per line) to this file")
	flag.BoolVar(&cfg.verbose, "v", false, "print graph statistics")
	flag.StringVar(&cfg.listen, "listen", "", "serve Prometheus /metrics and expvar /debug/vars on this address (e.g. :9090) for the duration of the run")
	flag.StringVar(&cfg.pprofDir, "pprof", "", "write cpu.pprof and heap.pprof for the run into this directory, and mount /debug/pprof on -listen")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the run's span tree as Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
	flag.StringVar(&cfg.runlog, "runlog", "", "append the run's structured JSON log records (run_id-stamped slog) to this file (\"-\" = stderr)")
	flag.DurationVar(&cfg.wdInterval, "watchdog-interval", 500*time.Millisecond, "slow-run watchdog scan interval (active when -watchdog-deadline-frac or -watchdog-stall is set)")
	flag.Float64Var(&cfg.wdDeadlineFrac, "watchdog-deadline-frac", 0, "warn through the run log when the run has consumed this fraction of its -timeout budget (0 = off)")
	flag.DurationVar(&cfg.wdStall, "watchdog-stall", 0, "warn through the run log when the run's vertex progress stalls for this long (0 = off)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	// Ctrl-C cancels the in-flight run; the software engines notice at
	// their next context checkpoint and the CLI reports partial progress.
	// A second Ctrl-C kills the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bitcolor:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig) error {
	var o *bitcolor.Observer
	if cfg.observing() {
		var oopts []bitcolor.ObserverOption
		if cfg.runlog != "" {
			w, closeLog, err := openRunLog(cfg.runlog)
			if err != nil {
				return err
			}
			defer closeLog()
			oopts = append(oopts, bitcolor.WithLogHandler(slog.NewJSONHandler(w, nil)))
		}
		o = bitcolor.NewObserver(oopts...)
		ctx = bitcolor.WithObserver(ctx, o)
		if cfg.listen != "" {
			srv, err := bitcolor.ServeObserver(cfg.listen, o, cfg.pprofDir != "")
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("observability endpoint on http://%s (run %s)\n", srv.Addr, o.RunID())
		}
		if cfg.traceOut != "" {
			finish := startTraceFlusher(ctx, o, cfg.traceOut)
			defer finish()
		}
	}
	if cfg.watchdogOn() {
		stopWD := bitcolor.StartRunWatchdog(bitcolor.RunWatchdogConfig{
			Interval:         cfg.wdInterval,
			DeadlineFraction: cfg.wdDeadlineFrac,
			Stall:            cfg.wdStall,
		})
		defer stopWD()
	}
	if cfg.outOfCore {
		return runOutOfCore(ctx, cfg)
	}
	var (
		g   *bitcolor.Graph
		err error
	)
	switch {
	case cfg.input != "" && cfg.dataset != "":
		return fmt.Errorf("give either -input or -dataset, not both")
	case cfg.input != "":
		// The handle stays open for the whole run: with -no-preprocess a
		// mapped one-shard BCSR v3 input is colored straight out of the
		// page cache, zero-copy.
		h, herr := bitcolor.OpenGraphFileContext(ctx, cfg.input)
		if herr != nil {
			return herr
		}
		defer h.Close()
		g = h.Graph()
		if cfg.verbose {
			fmt.Printf("input format: %s (mapped: %v)\n", h.Format(), h.Mapped())
		}
	case cfg.dataset != "":
		g, err = bitcolor.Generate(cfg.dataset, cfg.seed)
	default:
		return fmt.Errorf("need -input FILE or -dataset ABBREV (one of %v)", bitcolor.Datasets())
	}
	if err != nil {
		return err
	}
	if cfg.verbose {
		fmt.Printf("graph: %v vertices, %v undirected edges, max degree %d\n",
			g.NumVertices(), g.UndirectedEdgeCount(), g.MaxDegree())
	}

	if cfg.engine == "accelerator" {
		return runAccelerator(g, cfg)
	}

	eng, err := bitcolor.ParseEngine(cfg.engine)
	if err != nil {
		return err
	}
	info, _ := eng.Info()
	pipe := bitcolor.Pipeline{
		SkipPreprocess: cfg.noPrep,
		Color: bitcolor.ColorOptions{
			Engine: eng, MaxColors: cfg.maxColors, Seed: cfg.seed, Workers: cfg.workers,
			ShardCount: cfg.shards, PartitionStrategy: cfg.partition,
		},
	}
	stopProf, err := startProfiles(cfg.pprofDir)
	if err != nil {
		return err
	}
	start := time.Now()
	pr, err := pipe.Run(ctx, g)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		if pr != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			printPartial(pr, err, time.Since(start))
		}
		return err
	}
	if info.Parallel {
		fmt.Printf("engine: %v (%d workers)\n", eng, pr.Stats.Workers)
	} else {
		fmt.Printf("engine: %v\n", eng)
	}
	fmt.Printf("colors used: %d\n", pr.Result.NumColors)
	if pr.Stats.Rounds > 0 {
		fmt.Printf("rounds: %d, conflicts: %d found / %d repaired, worker imbalance: %.2fx\n",
			pr.Stats.Rounds, pr.Stats.ConflictsFound, pr.Stats.ConflictsRepaired, pr.Stats.Imbalance())
	}
	if pr.Stats.Deferred > 0 || pr.Stats.SpinWaits > 0 {
		fmt.Printf("deferred: %d parked / %d replays, ring peak: %d/%d, spin waits: %d\n",
			pr.Stats.Deferred, pr.Stats.DeferRetries, pr.Stats.ForwardRingPeak,
			bitcolor.ForwardRingCap, pr.Stats.SpinWaits)
	}
	if pr.Stats.Shards > 0 {
		fmt.Printf("shards: %d, cut edges: %d, boundary vertices: %d, frontier: %d, cross-shard defers: %d\n",
			pr.Stats.Shards, pr.Stats.CutEdges, pr.Stats.BoundaryVertices,
			pr.Stats.FrontierVertices, pr.Stats.CrossShardDefers)
	}
	for _, s := range pr.Stages {
		fmt.Printf("  %-10s %v\n", s.Name, s.Duration.Round(time.Microsecond))
	}
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Microsecond))
	return writeColors(cfg.colorsOut, pr.Result.Colors)
}

// runOutOfCore colors a range-partitioned BCSR v3 file with the
// streaming executor: shards are mapped in index order and released one
// residency window at a time, so the whole adjacency never sits in
// memory at once. The graph is colored exactly as the preprocessed file
// laid it out — there is no in-memory preprocessing stage to skip or
// apply.
func runOutOfCore(ctx context.Context, cfg runConfig) error {
	if cfg.input == "" {
		return fmt.Errorf("-outofcore needs -input FILE (a BCSR v3 file from `preprocess -shards K`)")
	}
	if cfg.dataset != "" {
		return fmt.Errorf("-outofcore streams from disk; give -input, not -dataset")
	}
	eng, err := bitcolor.ParseEngine(cfg.engine)
	if err != nil {
		return err
	}
	h, err := bitcolor.OpenGraphFileOutOfCoreContext(ctx, cfg.input)
	if err != nil {
		return err
	}
	defer h.Close()
	if cfg.verbose {
		fmt.Printf("input format: %s (%d shards, %s partition)\n",
			h.Format(), h.NumShards(), h.PartitionStrategy())
	}
	stopProf, err := startProfiles(cfg.pprofDir)
	if err != nil {
		return err
	}
	start := time.Now()
	res, st, err := bitcolor.ColorHandleContext(ctx, h, bitcolor.ColorOptions{
		Engine: eng, MaxColors: cfg.maxColors, Seed: cfg.seed, Workers: cfg.workers,
		ShardCount: cfg.shards, PartitionStrategy: cfg.partition,
		OutOfCore: true, MaxResidentShards: cfg.resident,
	})
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Printf("engine: %v (%d workers, out-of-core)\n", eng, st.Workers)
	fmt.Printf("colors used: %d\n", res.NumColors)
	fmt.Printf("shards: %d, cut edges: %d, boundary vertices: %d\n",
		st.Shards, st.CutEdges, st.BoundaryVertices)
	fmt.Printf("residency: %d shards mapped at once, peak mapped %.2f MiB\n",
		st.ResidentShards, float64(st.PeakMappedBytes)/(1<<20))
	fmt.Printf("wall time: %v\n", time.Since(start).Round(time.Microsecond))
	return writeColors(cfg.colorsOut, res.Colors)
}

// openRunLog opens the structured-log sink: stderr for "-", otherwise
// the file in append mode so repeated invocations accumulate one
// run_id-separable log stream.
func openRunLog(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stderr, func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// startTraceFlusher arranges for the Chrome trace to reach disk no
// matter how the run ends. The returned finish func (deferred by the
// caller) writes the complete trace on the way out; a background
// goroutine additionally flushes a partial trace the moment the context
// is cancelled — stamped with a cancelled=true attribute in the trace's
// otherData — so a run killed before its defers execute (a second
// Ctrl-C lands while the partial-progress report is printing) still
// leaves the stages that did run on disk. WriteTraceFile is atomic
// (temp file + rename), so the final complete write cleanly replaces
// the partial one and readers never observe a torn file.
func startTraceFlusher(ctx context.Context, o *bitcolor.Observer, path string) (finish func()) {
	runDone := make(chan struct{})
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		select {
		case <-runDone:
		case <-ctx.Done():
			o.Annotate("cancelled", true)
			if err := o.WriteTraceFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "bitcolor: trace:", err)
			}
		}
	}()
	return func() {
		close(runDone)
		<-flusherDone // serialize with any in-flight partial write
		if err := o.WriteTraceFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bitcolor: trace:", err)
		} else {
			fmt.Printf("trace written to %s\n", path)
		}
	}
}

// printPartial reports how far a cancelled or deadlined run got.
func printPartial(pr *bitcolor.PipelineResult, cause error, elapsed time.Duration) {
	reason := "cancelled"
	if errors.Is(cause, context.DeadlineExceeded) {
		reason = "timed out"
	}
	fmt.Printf("%s after %v\n", reason, elapsed.Round(time.Microsecond))
	if len(pr.Stages) == 0 {
		fmt.Println("no stage completed")
	}
	for _, s := range pr.Stages {
		fmt.Printf("  completed %-10s %v\n", s.Name, s.Duration.Round(time.Microsecond))
	}
	if pr.Stats.Workers > 0 {
		fmt.Printf("  partial stats: %v\n", pr.Stats)
	}
}

// runAccelerator drives the discrete-event simulator (not cancellable:
// simulated time, not wall time, dominates and runs are short).
func runAccelerator(g *bitcolor.Graph, cfg runConfig) error {
	var err error
	if !cfg.noPrep {
		g, err = bitcolor.Preprocess(g)
		if err != nil {
			return err
		}
	}
	stopProf, err := startProfiles(cfg.pprofDir)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "bitcolor: pprof:", perr)
		}
	}()
	start := time.Now()
	simCfg := bitcolor.DefaultSimConfig(cfg.parallelism)
	simCfg.MaxColors = cfg.maxColors
	simCfg.RecordTimeline = cfg.timeline != ""
	switch {
	case cfg.cacheSize > 0:
		simCfg.CacheVertices = cfg.cacheSize
	default:
		// Auto-scale: cover roughly the top eighth of vertices so
		// cache behaviour on scaled graphs matches the paper-scale
		// regime (512K of millions).
		auto := 64
		for auto < g.NumVertices()/8 {
			auto *= 2
		}
		simCfg.CacheVertices = auto
	}
	res, err := bitcolor.Simulate(g, simCfg)
	if err != nil {
		return err
	}
	fmt.Printf("engine: accelerator (P=%d)\n", cfg.parallelism)
	fmt.Printf("colors used: %d\n", res.NumColors)
	fmt.Printf("simulated cycles: %d (%.3f ms at 200 MHz)\n", res.TotalCycles, res.Seconds*1e3)
	fmt.Printf("throughput: %.2f MCV/s (simulated), cache hit rate %.1f%%\n",
		res.MCVps, 100*res.CacheHitRate)
	fmt.Printf("DRAM: %d color reads (%d bursts), %d writes; conflicts deferred: %d\n",
		res.ColorDRAM.Reads, res.ColorDRAM.BurstReads, res.ColorDRAM.Writes,
		res.Aggregate.EdgesDeferred)
	if cfg.timeline != "" {
		f, err := os.Create(cfg.timeline)
		if err != nil {
			return err
		}
		if err := res.WriteTimelineCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("timeline written to %s (%d spans)\n", cfg.timeline, len(res.Timeline))
	}
	fmt.Printf("host wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return writeColors(cfg.colorsOut, res.Colors)
}

// writeColors emits "vertex color" lines. Software engines write colors
// for the ORIGINAL vertex IDs (the pipeline undoes the preprocessing
// permutation); the accelerator writes colors on its reordered
// processing graph.
func writeColors(path string, colors []uint16) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for v, c := range colors {
		if _, err := fmt.Fprintf(w, "%d %d\n", v, c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("coloring written to %s\n", path)
	return nil
}
