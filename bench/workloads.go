package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bitcolor"
	"bitcolor/internal/coloring"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

// input is one generated graph a workload serves, with its oracle.
type input struct {
	g        *bitcolor.Graph // resident graph; nil when the request opens path
	path     string          // on-disk copy the request opens; "" when resident
	vertices int
	edges    int64    // directed adjacency entries
	bytes    int64    // file size, or resident adjacency bytes
	ref      []uint16 // sequential-greedy colors, in the IDs the request returns

	scratch *bitcolor.Scratch  // resident-social's per-graph arena
	sf      *graph.ShardedFile // stream-social's verify probe handle (traced runs)
}

// fixture is one workload after set-up: its inputs, how many clients send
// requests, and the request itself.
type fixture struct {
	clients int
	inputs  []*input
	// serve runs one request on in and returns its colors. Every call into
	// the library goes through c.timed, so a traced request records one
	// child span per layer call.
	serve func(ctx context.Context, c *call, in *input) ([]uint16, error)
	// probe makes extra timed calls after a traced request, off the
	// request's clock: it adds measurements and never replaces a real call.
	probe func(c *call, in *input, colors []uint16)
	close func()
}

// workload names one closed-loop workload and how to set it up.
type workload struct {
	name  string
	setup func(cfg config) (*fixture, error)
}

var workloads = []workload{
	{"resident-social", setupResidentSocial},
	{"service-road", setupServiceRoad},
	{"edgelist-pipeline", setupEdgelistPipeline},
	{"stream-social", setupStreamSocial},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// generate builds k inputs of a Table 3 stand-in from seeds seed…seed+k-1,
// one goroutine per input (the generators are sequential); small selects
// the unit-test sizes of gen.SmallRegistry.
func generate(abbrev string, cfg config, k int) ([]*bitcolor.Graph, error) {
	d, err := gen.ByAbbrev(abbrev)
	if err != nil {
		return nil, err
	}
	if cfg.small {
		for _, s := range gen.SmallRegistry() {
			if s.Abbrev == abbrev {
				d = s
			}
		}
	}
	out := make([]*bitcolor.Graph, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = d.Build(cfg.seed + int64(i))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("generate %s: %w", abbrev, err)
	}
	return out, nil
}

// preprocessed generates k inputs, renumbers each with order, and computes
// their greedy references.
func preprocessed(abbrev string, cfg config, k int, order func(*bitcolor.Graph) (*bitcolor.Graph, error)) ([]*input, error) {
	raw, err := generate(abbrev, cfg, k)
	if err != nil {
		return nil, err
	}
	ins := make([]*input, k)
	for i, r := range raw {
		g, err := order(r)
		if err != nil {
			return nil, err
		}
		ref, err := greedy(g)
		if err != nil {
			return nil, err
		}
		ins[i] = &input{g: g, vertices: g.NumVertices(), edges: g.NumEdges(),
			bytes: 8*int64(len(g.Offsets)) + 4*g.NumEdges(), ref: ref}
	}
	return ins, nil
}

// dbg renumbers g by the library's DBG preprocessing.
func dbg(g *bitcolor.Graph) (*bitcolor.Graph, error) { return bitcolor.Preprocess(g) }

// foldHalves renumbers g for a two-way range split: the lower half of the
// IDs keeps its numbering and the upper half is numbered in reverse, so on
// a row-major grid both halves keep their locality and the row along the
// cut comes last in the upper half. The sharded engine sends a vertex to
// the frontier when a lower-numbered neighbor lies in the other shard or is
// on the frontier itself. In this order only the cut row joins the
// frontier; in generation order or after DBG the frontier spreads through
// the whole upper shard.
func foldHalves(g *bitcolor.Graph) (*bitcolor.Graph, error) {
	n := g.NumVertices()
	h := (n + 1) / 2 // the first vertex PartitionRanges puts in shard 1
	p := &reorder.Permutation{NewID: make([]graph.VertexID, n), OldID: make([]graph.VertexID, n)}
	for v := range n {
		nw := v
		if v >= h {
			nw = h + n - 1 - v
		}
		p.NewID[v], p.OldID[nw] = graph.VertexID(nw), graph.VertexID(v)
	}
	return reorder.Apply(g, p), nil
}

// greedy is the oracle: the sequential EngineGreedy coloring.
func greedy(g *bitcolor.Graph) ([]uint16, error) {
	res, _, err := bitcolor.ColorContext(context.Background(), g, bitcolor.ColorOptions{Engine: bitcolor.EngineGreedy})
	if err != nil {
		return nil, fmt.Errorf("greedy reference: %w", err)
	}
	return res.Colors, nil
}

// goroutines is the compute goroutine count a run uses: the workload's own
// unless a test pins it.
func (cfg config) goroutines(own int) int {
	if cfg.workers > 0 {
		return cfg.workers
	}
	return own
}

// verifyProbe times an extra Verify of a resident graph's colors.
func verifyProbe(c *call, in *input, colors []uint16) {
	_ = c.probe("verify.verify", func() error { return bitcolor.Verify(in.g, colors) })
}

// setupResidentSocial: three resident CF stand-ins colored by DCT at two
// workers, each with its own Scratch, round-robin from one client.
func setupResidentSocial(cfg config) (*fixture, error) {
	ins, err := preprocessed("CF", cfg, 3, dbg)
	if err != nil {
		return nil, err
	}
	w := cfg.goroutines(2)
	for _, in := range ins {
		in.scratch = bitcolor.AcquireScratch(bitcolor.EngineDCT, w, in.g)
	}
	return &fixture{
		clients: 1,
		inputs:  ins,
		serve: func(ctx context.Context, c *call, in *input) ([]uint16, error) {
			opts := bitcolor.ColorOptions{Engine: bitcolor.EngineDCT, Workers: w, Scratch: in.scratch}
			var res *bitcolor.Result
			err := c.timed("coloring.color", func() (err error) {
				var st bitcolor.RunStats
				res, st, err = bitcolor.ColorContext(ctx, in.g, opts)
				c.rec.runStats(st)
				return err
			})
			if err != nil {
				return nil, err
			}
			return res.Colors, nil
		},
		probe: verifyProbe,
		close: func() {
			for _, in := range ins {
				in.scratch.Release()
			}
		},
	}, nil
}

// observerRequests is how many requests share one live observer before
// service-road replaces it.
const observerRequests = 64

// liveObserver is the observer service-road's clients share. An observer
// keeps every span it is given, so it is replaced every observerRequests
// requests: the benchmark's memory then does not grow with the number of
// requests a run completes.
type liveObserver struct {
	requests atomic.Int64
	cur      atomic.Pointer[bitcolor.Observer]
}

func newLiveObserver() *liveObserver {
	l := &liveObserver{}
	l.renew()
	return l
}

func (l *liveObserver) renew() {
	l.cur.Store(bitcolor.NewObserver(bitcolor.WithRunID("bench-service-road")))
}

// next returns the observer for one request.
func (l *liveObserver) next() *bitcolor.Observer {
	if l.requests.Add(1)%observerRequests == 0 {
		l.renew()
	}
	return l.cur.Load()
}

// setupServiceRoad: three resident RC stand-ins, renumbered by foldHalves,
// served by two clients through one shared pool and one live observer, two
// range shards at one worker each.
func setupServiceRoad(cfg config) (*fixture, error) {
	ins, err := preprocessed("RC", cfg, 3, foldHalves)
	if err != nil {
		return nil, err
	}
	const shards = 2
	opts := bitcolor.ColorOptions{
		Engine:            bitcolor.EngineSharded,
		ShardCount:        shards,
		Workers:           cfg.goroutines(1),
		PartitionStrategy: bitcolor.PartitionRanges,
		Pool:              bitcolor.NewPool(2),
	}
	live := newLiveObserver()
	var flight flightLog
	return &fixture{
		clients: 2,
		inputs:  ins,
		serve: func(ctx context.Context, c *call, in *input) ([]uint16, error) {
			opts := opts
			opts.Observer = live.next()
			var res *bitcolor.Result
			start := time.Now()
			err := c.timed("coloring.color", func() (err error) {
				var st bitcolor.RunStats
				res, st, err = bitcolor.ColorContext(ctx, in.g, opts)
				c.rec.runStats(st)
				return err
			})
			if err != nil {
				return nil, err
			}
			if c.rec != nil {
				if wait, ok := flight.claim(start); ok {
					c.rec.times["exec.pool_wait"] = wait
				}
			}
			return res.Colors, nil
		},
		probe: func(c *call, in *input, colors []uint16) {
			verifyProbe(c, in, colors)
			_ = c.probe("partition.build", func() error {
				_, err := coloring.BuildPartition(in.g, shards, bitcolor.PartitionRanges)
				return err
			})
		},
		close: func() {},
	}, nil
}

// setupEdgelistPipeline: three raw GD stand-ins written as SNAP edge lists;
// each request opens one, runs the DCT pipeline and closes it.
func setupEdgelistPipeline(cfg config) (*fixture, error) {
	raw, err := generate("GD", cfg, 3)
	if err != nil {
		return nil, err
	}
	ins := make([]*input, len(raw))
	for i, g := range raw {
		path := filepath.Join(cfg.dir, fmt.Sprintf("gd-%d.txt", i))
		loaded, err := writeEdgeList(path, g)
		if err != nil {
			return nil, err
		}
		ref, err := pipelineReference(loaded)
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		ins[i] = &input{path: path, vertices: loaded.NumVertices(), edges: loaded.NumEdges(), bytes: st.Size(), ref: ref}
	}
	p := bitcolor.Pipeline{Color: bitcolor.ColorOptions{Engine: bitcolor.EngineDCT, Workers: cfg.goroutines(2)}}
	return &fixture{
		clients: 1,
		inputs:  ins,
		serve: func(ctx context.Context, c *call, in *input) ([]uint16, error) {
			var h *bitcolor.GraphHandle
			if err := c.timed("graph.open", func() (err error) {
				h, err = bitcolor.OpenGraphFile(in.path)
				return err
			}); err != nil {
				return nil, err
			}
			var pr *bitcolor.PipelineResult
			runErr := c.timed("pipeline.run", func() (err error) {
				pr, err = p.Run(ctx, h.Graph())
				return err
			})
			closeErr := c.timed("graph.close", h.Close)
			if runErr != nil {
				return nil, runErr
			}
			if closeErr != nil {
				return nil, closeErr
			}
			if r := c.rec; r != nil {
				r.counts["parse_bytes"] = float64(in.bytes)
				r.runStats(pr.Stats)
				r.times["reorder.preprocess"] = pr.StageDuration("preprocess")
				r.times["coloring.color"] = pr.StageDuration("color")
				r.times["verify.verify"] = pr.StageDuration("verify")
				r.times["verify.unpermute"] = r.times["pipeline.run"] - pr.Total
			}
			return pr.Result.Colors, nil
		},
		probe: func(*call, *input, []uint16) {},
		close: func() {},
	}, nil
}

// writeEdgeList writes g as a SNAP edge list, each undirected edge once,
// and returns the graph a SNAP reader must load from it: the reader
// densifies vertex IDs in first-appearance order, so the returned graph is
// g relabeled that way, built here without the library's parser.
func writeEdgeList(path string, g *bitcolor.Graph) (*bitcolor.Graph, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	ids := make(map[bitcolor.VertexID]bitcolor.VertexID, g.NumVertices())
	id := func(v bitcolor.VertexID) bitcolor.VertexID {
		d, ok := ids[v]
		if !ok {
			d = bitcolor.VertexID(len(ids))
			ids[v] = d
		}
		return d
	}
	var edges []bitcolor.Edge
	for v := 0; v < g.NumVertices(); v++ {
		u := bitcolor.VertexID(v)
		for _, w := range g.Neighbors(u) {
			if u < w {
				fmt.Fprintf(bw, "%d %d\n", u, w)
				edges = append(edges, bitcolor.Edge{U: id(u), V: id(w)})
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return bitcolor.NewGraph(len(ids), edges)
}

// pipelineReference is the pipeline's expected output: greedy on the
// DBG-preprocessed graph, mapped back through the permutation.
func pipelineReference(g *bitcolor.Graph) ([]uint16, error) {
	pg, newID, err := bitcolor.PreprocessWithPermutation(g)
	if err != nil {
		return nil, err
	}
	colors, err := greedy(pg)
	if err != nil {
		return nil, err
	}
	ref := make([]uint16, len(newID))
	for old, v := range newID {
		ref[old] = colors[v]
	}
	return ref, nil
}

// setupStreamSocial: two preprocessed CO stand-ins written as 4-shard
// BCSR v3 files; each request opens one out of core, streams it with one
// shard mapped at a time and two workers on that shard, and closes it.
//
// One resident shard at two workers, not two resident shards at one worker
// each: on a 2-vCPU VM whose vCPUs each slow down by up to 1.5× for
// seconds at a time, 10 s runs of the two shapes, interleaved over the same
// minutes, spread 0.07 and 0.19 in latency_ms_p50 (interquartile range ÷
// median) against 0.31 and 0.36 for two resident shards.
func setupStreamSocial(cfg config) (*fixture, error) {
	ins, err := preprocessed("CO", cfg, 2, dbg)
	if err != nil {
		return nil, err
	}
	for i, in := range ins {
		in.path = filepath.Join(cfg.dir, fmt.Sprintf("co-%d.bcsr", i))
		if err := bitcolor.SaveGraphV3(in.path, in.g, 4, bitcolor.PartitionRanges); err != nil {
			return nil, err
		}
		st, err := os.Stat(in.path)
		if err != nil {
			return nil, err
		}
		in.bytes = st.Size()
		in.g = nil // requests read the file only
		if cfg.trace {
			if in.sf, err = graph.OpenShardedFile(in.path); err != nil {
				return nil, err
			}
		}
	}
	opts := bitcolor.ColorOptions{Engine: bitcolor.EngineSharded, OutOfCore: true, MaxResidentShards: 1, Workers: cfg.goroutines(2)}
	return &fixture{
		clients: 1,
		inputs:  ins,
		serve: func(ctx context.Context, c *call, in *input) ([]uint16, error) {
			var h *bitcolor.GraphHandle
			if err := c.timed("graph.open", func() (err error) {
				h, err = bitcolor.OpenGraphFileOutOfCore(in.path)
				return err
			}); err != nil {
				return nil, err
			}
			var res *bitcolor.Result
			colorErr := c.timed("coloring.color", func() (err error) {
				var st bitcolor.RunStats
				res, st, err = bitcolor.ColorHandleContext(ctx, h, opts)
				c.rec.runStats(st)
				return err
			})
			if r := c.rec; r != nil {
				ss := h.ShardStats()
				r.counts["graph.shard_maps"] = float64(ss.Maps)
				r.counts["graph.peak_mapped_bytes"] = float64(ss.PeakResidentBytes)
			}
			closeErr := c.timed("graph.close", h.Close)
			if colorErr != nil {
				return nil, colorErr
			}
			if closeErr != nil {
				return nil, closeErr
			}
			return res.Colors, nil
		},
		probe: func(c *call, in *input, colors []uint16) {
			_ = c.probe("verify.verify", func() error { return coloring.VerifySharded(in.sf, colors) })
		},
		close: func() {
			for _, in := range ins {
				if in.sf != nil {
					in.sf.Close()
				}
			}
		},
	}, nil
}
