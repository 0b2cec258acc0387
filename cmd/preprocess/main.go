// Command preprocess applies BitColor's preprocessing — degree-based
// grouping (DBG) reordering, which leaves every adjacency list sorted —
// to a graph and reports the Table 2 style timings (reordering vs
// coloring) plus a per-stage breakdown (load / build / DBG) of the
// pipeline.
//
// Usage:
//
//	preprocess -input graph.txt -out graph-dbg.bcsr
//	preprocess -input graph.txt -out graph-dbg.bcsr -shards 8
//	preprocess -input old.bcsr -convert -out new.bcsr
//	preprocess -dataset CO -time
//
// -out is always written in the shard-major BCSR v3 format, partitioned
// into -shards parts (default 1) with the -partition strategy and the
// assignment persisted for EngineSharded's partition cache. A one-shard
// file is what OpenGraphFile maps zero-copy; a multi-shard ranges file
// streams out of core. -convert skips the preprocessing and rewrites the
// input graph as it is — how an older v1 or v2 file becomes v3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bitcolor"
	"bitcolor/internal/coloring"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
	"bitcolor/internal/reorder"
)

func main() {
	var (
		input      = flag.String("input", "", "graph file (edge list, .col or .bcsr)")
		dataset    = flag.String("dataset", "", "synthetic dataset abbreviation")
		out        = flag.String("out", "", "write the reordered graph here (.bcsr)")
		shards     = flag.Int("shards", 1, "partition count persisted in -out (1: the zero-copy in-core layout)")
		strategy   = flag.String("partition", bitcolor.PartitionRanges, "partition strategy persisted in -out: ranges|labelprop")
		convert    = flag.Bool("convert", false, "skip preprocessing and write the input graph to -out unchanged (format conversion)")
		seed       = flag.Int64("seed", 1, "generator seed")
		showTime   = flag.Bool("time", false, "report reordering vs coloring wall time (Table 2)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the preprocessing to this file")
	)
	flag.Parse()
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "preprocess:", err)
		os.Exit(1)
	}
	err = run(*input, *dataset, *out, *seed, *showTime,
		saveConfig{shards: *shards, strategy: *strategy}, *convert)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "preprocess:", err)
		os.Exit(1)
	}
}

// isEdgeListPath reports whether the CLI treats path as a text edge list
// (everything that is not the binary or DIMACS format).
func isEdgeListPath(path string) bool {
	return !strings.HasSuffix(path, ".bcsr") && !strings.HasSuffix(path, ".col")
}

// saveConfig is the partition shape -out persists.
type saveConfig struct {
	shards   int
	strategy string
}

// saveGraph writes g to path as BCSR v3 and reports what it wrote.
func saveGraph(path string, g *bitcolor.Graph, cfg saveConfig) error {
	start := time.Now()
	if err := bitcolor.SaveGraphV3(path, g, cfg.shards, cfg.strategy); err != nil {
		return err
	}
	fmt.Printf("wrote %s (bcsr v3, %d shards, %s partition, %v)\n",
		path, cfg.shards, cfg.strategy, time.Since(start).Round(time.Microsecond))
	return nil
}

func run(input, dataset, out string, seed int64, showTime bool, save saveConfig, convert bool) error {
	// Stage 1+2: load (parse text / read binary / generate) and build
	// (CSR construction). Text edge lists split the two so the build's
	// share is visible; the other sources build internally.
	var (
		g         *bitcolor.Graph
		err       error
		loadTime  time.Duration
		buildTime time.Duration
	)
	start := time.Now()
	switch {
	case input != "" && isEdgeListPath(input):
		f, ferr := os.Open(input)
		if ferr != nil {
			return ferr
		}
		n, edges, _, perr := graph.ReadEdges(f)
		f.Close()
		if perr != nil {
			return perr
		}
		loadTime = time.Since(start)
		start = time.Now()
		g, err = graph.FromEdgeList(n, edges)
		buildTime = time.Since(start)
	case input != "":
		g, err = bitcolor.LoadGraph(input)
		loadTime = time.Since(start)
	case dataset != "":
		g, err = bitcolor.Generate(dataset, seed)
		loadTime = time.Since(start)
	default:
		return fmt.Errorf("need -input FILE or -dataset ABBREV")
	}
	if err != nil {
		return err
	}

	// Conversion mode: rewrite the loaded graph as-is (typically an
	// older .bcsr into v3) and stop.
	if convert {
		if out == "" {
			return fmt.Errorf("-convert needs -out FILE")
		}
		fmt.Printf("loaded %d vertices, %d edges in %v\n",
			g.NumVertices(), g.UndirectedEdgeCount(), loadTime.Round(time.Microsecond))
		return saveGraph(out, g, save)
	}

	// Stage 3: DBG reordering (degree counting sort + relabel). The
	// relabel writes every list sorted whatever the input order.
	start = time.Now()
	prepared, perm := reorder.DBG(g)
	dbgTime := time.Since(start)
	if err := perm.Validate(); err != nil {
		return fmt.Errorf("internal: %w", err)
	}
	total := loadTime + buildTime + dbgTime
	fmt.Printf("reordered %d vertices, %d edges in %v\n",
		prepared.NumVertices(), prepared.UndirectedEdgeCount(), dbgTime.Round(time.Microsecond))
	fmt.Printf("degree-descending: %v, edges sorted: %v\n",
		reorder.IsDegreeDescending(prepared), prepared.EdgesSorted())
	fmt.Printf("pipeline: load %v, build %v, dbg %v (total %v)\n",
		loadTime.Round(time.Microsecond), buildTime.Round(time.Microsecond),
		dbgTime.Round(time.Microsecond), total.Round(time.Microsecond))

	if showTime {
		// Table 2's baseline: the paper's Algorithm 1 run literally, as
		// benchsuite -exp table2 times it.
		start = time.Now()
		res, err := coloring.GreedyLiteral(context.Background(), prepared, coloring.MaxColorsDefault)
		if err != nil {
			return err
		}
		colorTime := time.Since(start)
		fmt.Printf("GreedyLiteral (paper Algorithm 1) coloring: %v (%d colors)\n",
			colorTime.Round(time.Microsecond), res.NumColors)
		fmt.Printf("reorder/GreedyLiteral ratio: %.1f%% (paper: reordering cost is small)\n",
			100*float64(dbgTime)/float64(colorTime))
	}

	if out != "" {
		return saveGraph(out, prepared, save)
	}
	return nil
}
