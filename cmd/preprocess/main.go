// Command preprocess applies BitColor's preprocessing — degree-based
// grouping (DBG) reordering, which leaves every adjacency list sorted —
// to a graph and reports the Table 2 style timings (reordering vs
// coloring) plus a per-stage breakdown (load / build / DBG) of the
// pipeline.
//
// Usage:
//
//	preprocess -input graph.txt -out graph-dbg.bcsr
//	preprocess -input graph.txt -out graph-dbg.bcsr -obin-v2
//	preprocess -input old.bcsr -convert -obin-v2 -out new.bcsr
//	preprocess -input graph.txt -out graph-dbg.bcsr -obin-v3 -shards 8
//	preprocess -input old.bcsr -convert -obin-v3 -shards 4 -out new.bcsr
//	preprocess -dataset CO -time
//
// -obin-v2 writes -out in the mmap-ready BCSR v2 format instead of v1;
// -obin-v3 writes the shard-major BCSR v3 format, partitioning into
// -shards parts with the -partition strategy and persisting the
// assignment for the out-of-core engine's partition cache. -convert
// skips the preprocessing entirely and just rewrites the input graph,
// which together give v1 → v2 → v3 format conversions.
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
		outV2      = flag.Bool("obin-v2", false, "write -out in the mmap-ready BCSR v2 format (default: v1)")
		outV3      = flag.Bool("obin-v3", false, "write -out in the shard-major BCSR v3 format (persisted partition for out-of-core coloring)")
		shards     = flag.Int("shards", 4, "partition count persisted by -obin-v3")
		strategy   = flag.String("partition", bitcolor.PartitionRanges, "partition strategy persisted by -obin-v3: ranges|labelprop")
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
		saveConfig{v2: *outV2, v3: *outV3, shards: *shards, strategy: *strategy}, *convert)
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

// saveConfig selects the output binary format (v1 default; v3 carries
// its partition parameters).
type saveConfig struct {
	v2, v3   bool
	shards   int
	strategy string
}

// saveGraph writes g to path in the selected binary format and reports
// what it wrote.
func saveGraph(path string, g *bitcolor.Graph, cfg saveConfig) error {
	switch {
	case cfg.v3 && cfg.v2:
		return fmt.Errorf("-obin-v2 and -obin-v3 are mutually exclusive")
	case cfg.v3:
		start := time.Now()
		if err := bitcolor.SaveGraphV3(path, g, cfg.shards, cfg.strategy); err != nil {
			return err
		}
		fmt.Printf("wrote %s (bcsr v3, %d shards, %s partition, %v)\n",
			path, cfg.shards, cfg.strategy, time.Since(start).Round(time.Microsecond))
		return nil
	case cfg.v2:
		if err := graph.SaveBinaryV2File(path, g); err != nil {
			return err
		}
		fmt.Printf("wrote %s (bcsr v2)\n", path)
		return nil
	default:
		if err := graph.SaveBinaryFile(path, g); err != nil {
			return err
		}
		fmt.Printf("wrote %s (bcsr v1)\n", path)
		return nil
	}
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

	// Conversion mode: rewrite the loaded graph as-is (typically a v1
	// .bcsr into the mmap-ready v2 layout) and stop.
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
