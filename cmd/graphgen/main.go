// Command graphgen emits the synthetic stand-in datasets (or custom
// generator output) as SNAP edge lists or one-shard BCSR v3 files.
//
// Usage:
//
//	graphgen -dataset CL -out cl.bcsr
//	graphgen -dataset all -dir ./data
//	graphgen -rmat 16 -edgefactor 8 -out big.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bitcolor"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "dataset abbreviation, or 'all'")
		out        = flag.String("out", "", "output file (.bcsr: one-shard BCSR v3, anything else edge list)")
		dir        = flag.String("dir", ".", "output directory for -dataset all")
		seed       = flag.Int64("seed", 1, "generator seed")
		rmat       = flag.Int("rmat", 0, "generate an RMAT graph of this scale instead of a named dataset")
		edgeFactor = flag.Int("edgefactor", 8, "RMAT edges per vertex")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the generation to this file")
	)
	flag.Parse()
	stopProf, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	err = run(*dataset, *out, *dir, *seed, *rmat, *edgeFactor)
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(dataset, out, dir string, seed int64, rmat, edgeFactor int) error {
	if rmat > 0 {
		if out == "" {
			return fmt.Errorf("-rmat needs -out")
		}
		g, err := gen.RMAT(rmat, edgeFactor, 0.57, 0.19, 0.19, seed)
		if err != nil {
			return err
		}
		return write(out, g)
	}
	if dataset == "" {
		return fmt.Errorf("need -dataset ABBREV|all (abbreviations: %v)", bitcolor.Datasets())
	}
	if dataset == "all" {
		for _, d := range gen.Registry() {
			g, err := d.Build(seed)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Abbrev, err)
			}
			path := filepath.Join(dir, strings.ToLower(d.Abbrev)+".bcsr")
			if err := write(path, g); err != nil {
				return err
			}
			fmt.Printf("%s (%s): %d vertices, %d edges -> %s\n",
				d.Abbrev, d.Name, g.NumVertices(), g.UndirectedEdgeCount(), path)
		}
		return nil
	}
	g, err := bitcolor.Generate(dataset, seed)
	if err != nil {
		return err
	}
	if out == "" {
		out = strings.ToLower(dataset) + ".bcsr"
	}
	if err := write(out, g); err != nil {
		return err
	}
	fmt.Printf("%s: %d vertices, %d edges -> %s\n",
		dataset, g.NumVertices(), g.UndirectedEdgeCount(), out)
	return nil
}

func write(path string, g *graph.CSR) error {
	if strings.HasSuffix(path, ".bcsr") {
		return bitcolor.SaveGraph(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
