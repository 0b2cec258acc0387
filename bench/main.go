// Command bench is the repository's benchmark: one closed-loop workload
// per process, driven through the public bitcolor API, every output
// checked byte for byte against a sequential-greedy reference.
//
//	go run . -workload resident-social -seed 1 -seconds 25 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics. Each metric is printed as
// "name value unit", and the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"bitcolor/internal/obs"
)

// processStart anchors the first set-up, which runs from process start.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 3, minRequests: 300}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the first input; input i uses seed+i")
	secs := fs.Float64("seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "traced run: write its spans to this file as Chrome trace JSON")
	out := fs.String("out", "", "append the stamped results to this file as one JSON line")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/work", "directory for generated input files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	rep, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d requests failed; first: %s\n", rep.Failed, rep.Attempted, rep.FirstError)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceOut != "" {
		if err := rep.tr.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, "bench: trace:", err)
			return 1
		}
	}
	if *out != "" {
		if err := rep.appendTo(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if u := rep.Metrics["bench.unattributed_frac"]; cfg.trace && u.Value > maxUnattributed {
		fmt.Fprintf(stderr, "bench: child spans leave %.3f of the request span unattributed (limit %.2f)\n", u.Value, maxUnattributed)
		return 1
	}
	return 0
}

// value is one metric reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inputSize describes one generated input.
type inputSize struct {
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"directed_edges"`
	Bytes    int64 `json:"bytes"`
}

// report is one run's outcome, stamped with what produced it.
type report struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	ErrorRate  float64          `json:"error_rate"`
	FirstError string           `json:"first_error,omitempty"`
	Samples    map[string]int   `json:"samples"`
	Inputs     []inputSize      `json:"inputs"`
	Metrics    map[string]value `json:"metrics"`
	Revision   string           `json:"revision"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Time       string           `json:"time"`

	tr *obs.Observer
}

// runBenchmark sets the workload up cfg.setups times, keeps the last
// set-up, and measures it.
func runBenchmark(cfg config) (*report, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.setups < 1 {
		return nil, errors.New("need at least one set-up")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.dir, err = os.MkdirTemp(cfg.dir, w.name+"-*"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)

	ctx := context.Background()
	var setups []time.Duration
	var fx *fixture
	for i := 0; i < cfg.setups; i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if fx, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm(ctx, fx)
		setups = append(setups, time.Since(start))
	}
	defer fx.close()
	if cfg.corrupt {
		for _, in := range fx.inputs {
			in.ref[0]++
		}
	}

	var tr *obs.Observer
	if cfg.trace {
		tr = obs.New(obs.WithRunID("bench-" + w.name))
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	ph := measure(ctx, fx, cfg.seconds, cfg.minRequests, tr)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep := &report{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    ph.wall.Seconds(),
		Trace:      cfg.trace,
		Attempted:  len(ph.samples),
		Samples:    map[string]int{},
		Metrics:    map[string]value{},
		Revision:   obs.Revision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		tr:         tr,
	}
	for _, s := range ph.samples {
		if s.err != nil {
			if rep.Failed == 0 {
				rep.FirstError = s.err.Error()
			}
			rep.Failed++
		}
	}
	rep.ErrorRate = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	for _, in := range fx.inputs {
		rep.Inputs = append(rep.Inputs, inputSize{in.vertices, in.edges, in.bytes})
	}
	defs, vals := endToEnd, map[string]float64(nil)
	ok := rep.Attempted - rep.Failed
	if cfg.trace {
		defs, vals = perLayer, layerMetrics(ph, tr.Spans())
		rep.Samples["traced"] = len(ph.records)
		rep.Samples["untraced"] = ok - len(ph.records)
	} else {
		vals = endToEndMetrics(setups, ph, rss)
		rep.Samples["setup_s"] = len(setups)
		rep.Samples["latency"] = ok
		rep.Samples["latency_beyond_p95"] = beyond(ok, 0.95)
	}
	for _, d := range defs {
		rep.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	return rep, nil
}

// print writes every metric as "name value unit", then the sample counts,
// then the one-line JSON result.
func (r *report) print(w io.Writer) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	fmt.Fprintf(w, "requests %d failed %d error_rate %g samples %v\n", r.Attempted, r.Failed, r.ErrorRate, r.Samples)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendTo appends the stamped report to path as one JSON line.
func (r *report) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
