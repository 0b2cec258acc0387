package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment and prints its report.
type Runner func(ctx *Context) error

// printer is what every experiment result knows how to do.
type printer interface {
	Print(ctx *Context)
}

// report adapts an experiment function onto the Runner shape: run, then
// print. The post hook (may be nil) runs after printing — used by the
// experiments that also emit machine-readable benchmark records.
func report[T printer](run func(*Context) (T, error), post func(*Context, T) error) Runner {
	return func(ctx *Context) error {
		r, err := run(ctx)
		if err != nil {
			return err
		}
		r.Print(ctx)
		if post != nil {
			return post(ctx, r)
		}
		return nil
	}
}

// Registry maps experiment IDs (as used by `benchsuite -exp`) to runners.
func RunnerRegistry() map[string]Runner {
	return map[string]Runner{
		"fig3a":         report(Fig3a, nil),
		"fig3b":         report(Fig3b, nil),
		"table2":        report(Table2, nil),
		"fig11":         report(Fig11, nil),
		"fig12":         report(Fig12, nil),
		"table4":        report(Table4, nil),
		"fig13":         report(Fig13, nil),
		"fig14":         report(Fig14, nil),
		"cacheablation": report(CacheAblation, nil),
		"cachesweep":    report(CacheSweep, nil),
		"dramsweep":     report(DRAMSweep, nil),
		"conflicts":     report(ConflictAnalysis, nil),
		"generality":    report(Generality, nil),
		"relaxed":       report(Relaxed, nil),
		"table3":        report(Table3, nil),
		"quality":       report(Quality, nil),
		"multicard":     report(MultiCard, nil),
		"lruvshdc":      report(LRUvsHDC, nil),
		"scorecard":     report(Scorecard, nil),
		"hostpar": report(HostPar, func(ctx *Context, r *HostParResult) error {
			return ctx.EmitBench("hostpar", r.BenchRecords())
		}),
		"locality": report(Locality, func(ctx *Context, r *LocalityResult) error {
			return ctx.EmitBench("locality", r.BenchRecords())
		}),
		"e2e": report(E2E, func(ctx *Context, r *E2EResult) error {
			return ctx.EmitBench("e2e", r.BenchRecords())
		}),
		"exec": report(ExecDispatch, func(ctx *Context, r *ExecResult) error {
			return ctx.EmitBench("exec", r.BenchRecords())
		}),
	}
}

// Descriptions maps experiment IDs to the one-line summaries benchsuite
// prints when an unknown -exp name is given.
func Descriptions() map[string]string {
	return map[string]string{
		"fig3a":         "greedy Stage 1 cost distribution (Fig 3a)",
		"fig3b":         "bit-wise vs flag-array Stage 1 ops (Fig 3b)",
		"table2":        "preprocessing cost and effect (Table 2)",
		"fig11":         "memory-path locality ablation (Fig 11)",
		"fig12":         "HVC hit rate across datasets (Fig 12)",
		"table4":        "color quality vs baselines (Table 4)",
		"fig13":         "speedup over CPU/GPU baselines (Fig 13)",
		"fig14":         "PE scaling sweep (Fig 14)",
		"cacheablation": "HVC on/off ablation",
		"cachesweep":    "HVC capacity sweep",
		"dramsweep":     "DRAM burst-size sweep",
		"conflicts":     "speculation conflict analysis",
		"generality":    "engine generality across graph families",
		"relaxed":       "relaxed-consistency variants",
		"table3":        "dataset registry statistics (Table 3)",
		"quality":       "color count vs sequential greedy",
		"multicard":     "partitioned multi-card coloring",
		"lruvshdc":      "LRU vs degree-pinned HVC policy",
		"scorecard":     "paper-claims scorecard",
		"hostpar":       "host-parallel engines: GM vs fused bit-wise vs DCT",
		"locality":      "blocked color-gather locality study",
		"e2e":           "end-to-end load+color breakdown",
		"exec":          "exec.Blocks dispatch overhead vs inline loops",
	}
}

// Names returns the experiment IDs in stable order.
func Names() []string {
	reg := RunnerRegistry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunAll executes every experiment in a stable order.
func RunAll(ctx *Context) error {
	// Report in the paper's order rather than alphabetically.
	order := []string{
		"table3", "fig3a", "fig3b", "table2", "fig11", "fig12", "table4",
		"fig13", "fig14", "cacheablation", "cachesweep", "dramsweep",
		"conflicts", "generality", "relaxed", "quality", "hostpar",
		"locality", "e2e", "exec", "multicard", "lruvshdc", "scorecard",
	}
	reg := RunnerRegistry()
	for _, name := range order {
		fmt.Fprintf(ctx.Out, "\n######## %s ########\n", name)
		if err := reg[name](ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
