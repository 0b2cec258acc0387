package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bitcolor/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run("fig14", true, "", 1, false, "", obsConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDatasetFilter(t *testing.T) {
	if err := run("table4", true, "EF,RC", 1, false, "", obsConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run("fig14", true, "", 1, true, "", obsConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalityEmitsJSON(t *testing.T) {
	dir := t.TempDir()
	if err := run("locality", true, "EF,RC", 1, false, dir, obsConfig{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_locality.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file experiments.BenchFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.SchemaVersion != experiments.BenchSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", file.SchemaVersion, experiments.BenchSchemaVersion)
	}
	if file.Exp != "locality" {
		t.Fatalf("exp = %q, want locality", file.Exp)
	}
	if file.GOMAXPROCS < 1 || file.NumCPU < 1 {
		t.Fatalf("host stamp gomaxprocs=%d num_cpu=%d, want both at least 1", file.GOMAXPROCS, file.NumCPU)
	}
	// 2 datasets × 2×2 ablation arms.
	if len(file.Records) != 8 {
		t.Fatalf("got %d records, want 8", len(file.Records))
	}
	for _, r := range file.Records {
		if r.Exp != "locality" || r.Engine != "parallelbitwise" ||
			r.Workers <= 0 || r.Colors <= 0 || r.WallNanos <= 0 || r.NsPerEdge <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
	}
	// The emission must land atomically: no temp file may survive the
	// rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "BENCH_locality.json" {
			t.Fatalf("unexpected leftover file %q in JSON dir", e.Name())
		}
	}
}

// TestRunWithObservability exercises the -listen/-trace-out wiring
// end to end: the suite's engine runs must flow their telemetry through
// the observer attached to Context.BaseCtx, and the resulting Chrome
// trace must be valid JSON with events.
func TestRunWithObservability(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	oc := obsConfig{listen: "127.0.0.1:0", traceOut: trace}
	if err := run("locality", true, "EF", 1, false, "", oc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var engineSpans int
	for _, ev := range tf.TraceEvents {
		if name, _ := ev["name"].(string); name == "engine/parallelbitwise" {
			engineSpans++
		}
	}
	if engineSpans == 0 {
		t.Fatalf("no engine/parallelbitwise spans in trace (%d events) — BaseCtx observer not reaching the registry decorator", len(tf.TraceEvents))
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nonsense", true, "", 1, false, "", obsConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run("fig14", true, "ZZ", 1, false, "", obsConfig{}); err == nil {
		t.Fatal("empty dataset filter accepted")
	}
}
