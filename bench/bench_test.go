package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smallConfig is a benchmark run on gen.SmallRegistry-sized inputs that
// stops after a request count instead of a time.
func smallConfig(t *testing.T, workload string, requests int) config {
	return config{workload: workload, seed: 7, setups: 1, minRequests: requests, small: true, dir: t.TempDir()}
}

func runSmall(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := runBenchmark(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return rep
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics asserts that rep reports exactly the listed metrics, each
// with its unit.
func checkMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", rep.Workload, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", rep.Workload, m.Name, got, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload untraced and traced on small inputs.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		// 300 requests leave 15 beyond the p95.
		rep := runSmall(t, smallConfig(t, w.name, 300))
		checkMetrics(t, rep, f.EndToEnd)
		if rep.ErrorRate != 0 || rep.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, rep.Failed, rep.Attempted)
		}
		if n := rep.Samples["latency_beyond_p95"]; n < 15 {
			t.Errorf("%s: %d latency samples beyond the p95, want at least 15", w.name, n)
		}
		for name, v := range rep.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
		if rep.GOMAXPROCS < 1 || rep.NumCPU < 1 || rep.Revision == "" || len(rep.Inputs) == 0 || rep.Inputs[0].Vertices == 0 {
			t.Errorf("%s: incomplete stamp %+v", w.name, rep)
		}

		cfg := smallConfig(t, w.name, 60)
		cfg.trace = true
		rep = runSmall(t, cfg)
		checkMetrics(t, rep, f.PerLayer)
		if rep.Failed != 0 {
			t.Errorf("%s traced: %d of %d requests failed", w.name, rep.Failed, rep.Attempted)
		}
		if rep.Samples["traced"] == 0 || rep.Samples["untraced"] == 0 {
			t.Errorf("%s traced: samples %v, want traced and untraced requests", w.name, rep.Samples)
		}
		if rep.Metrics["coloring.engine_ms_p50"].Value <= 0 {
			t.Errorf("%s traced: no engine time attributed", w.name)
		}
	}
}

// TestServiceRoadFrontierIsCutRow: renumbered by foldHalves, a grid split
// into two range shards sends only about one row to the frontier.
func TestServiceRoadFrontierIsCutRow(t *testing.T) {
	cfg := smallConfig(t, "service-road", 12)
	cfg.trace = true
	rep := runSmall(t, cfg)
	side := math.Sqrt(float64(rep.Inputs[0].Vertices))
	if f := rep.Metrics["coloring.frontier_vertices"].Value; f == 0 || f > 2*side {
		t.Errorf("frontier %v vertices on a %v×%v grid, want at most two rows", f, side, side)
	}
}

// TestCorruptReferenceFailsEveryRequest feeds the oracle a wrong reference:
// every request must count as failed.
func TestCorruptReferenceFailsEveryRequest(t *testing.T) {
	for _, w := range workloads {
		cfg := smallConfig(t, w.name, 12)
		cfg.corrupt = true
		rep := runSmall(t, cfg)
		if rep.ErrorRate != 1 || rep.Failed != rep.Attempted {
			t.Errorf("%s: error rate %v (%d of %d failed), want 1", w.name, rep.ErrorRate, rep.Failed, rep.Attempted)
		}
	}
}

// TestCountsRepeatAtOneWorker: at one worker per run the counted work of a
// traced run is a function of the seed alone.
func TestCountsRepeatAtOneWorker(t *testing.T) {
	counts := []string{
		"graph.shard_maps", "partition.cut_edges", "partition.boundary_vertices",
		"coloring.frontier_vertices", "coloring.cross_shard_defers",
		"dispatch.deferred_per_kv", "dispatch.defer_retries_per_kv",
		"dispatch.spin_waits", "dispatch.forward_ring_peak",
	}
	for _, w := range workloads {
		var first *report
		for i := 0; i < 2; i++ {
			cfg := smallConfig(t, w.name, 24)
			cfg.trace = true
			cfg.workers = 1
			rep := runSmall(t, cfg)
			if first == nil {
				first = rep
				continue
			}
			for _, name := range counts {
				if a, b := first.Metrics[name].Value, rep.Metrics[name].Value; a != b {
					t.Errorf("%s: %s = %v then %v", w.name, name, a, b)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.95, 5}, {0.2, 1}, {1, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(300, 0.95); got != 15 {
		t.Errorf("beyond(300, 0.95) = %d, want 15", got)
	}
}
