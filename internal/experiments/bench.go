package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"

	"bitcolor/internal/obs"
)

// BenchRecord is one machine-readable benchmark measurement, the JSON
// counterpart of a report-table row: which experiment and arm produced
// it, the engine and worker count, and the headline numbers (colors,
// wall-clock, normalized ns per directed adjacency entry).
type BenchRecord struct {
	Exp       string  `json:"exp"`
	Dataset   string  `json:"dataset"`
	Engine    string  `json:"engine"`
	Variant   string  `json:"variant,omitempty"`
	Workers   int     `json:"workers"`
	Colors    int     `json:"colors"`
	WallNanos int64   `json:"wall_ns"`
	NsPerEdge float64 `json:"ns_per_edge"`

	// End-to-end (first-byte-to-coloring) breakdown, filled only by the
	// e2e experiment; additive omitempty fields, so the schema version
	// stays 1 and old readers are unaffected.
	LoadNanos     int64   `json:"load_ns,omitempty"`
	ValidateNanos int64   `json:"validate_ns,omitempty"`
	ColorNanos    int64   `json:"color_ns,omitempty"`
	LoadRatio     float64 `json:"load_ratio,omitempty"`
}

// BenchSchemaVersion identifies the BENCH_<exp>.json envelope layout;
// bump it on any incompatible change to BenchFile or BenchRecord.
const BenchSchemaVersion = 1

// BenchFile is the on-disk envelope of one BENCH_<exp>.json emission:
// a schema version so downstream tooling can detect layout changes, the
// VCS revision the binary was built from (when the build recorded one),
// the host's GOMAXPROCS and CPU count the records were timed under, and
// the records themselves.
type BenchFile struct {
	SchemaVersion int           `json:"schema_version"`
	GitRevision   string        `json:"git_revision,omitempty"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
	Exp           string        `json:"exp"`
	Records       []BenchRecord `json:"records"`
}

// GitRevision returns the vcs.revision the running binary was built
// from (with a "+dirty" suffix for modified trees), or "" when the
// build info carries no VCS stamp (e.g. `go test` binaries). It reads
// the same obs.BuildInfo stamp the bitcolor_build_info family and the
// /debug/runs envelope expose, so a BenchFile always correlates with
// the metrics surface on one revision string.
func GitRevision() string {
	if r := obs.Revision(); r != "unknown" {
		return r
	}
	return ""
}

// EmitBench writes recs as BENCH_<exp>.json under the context's JSON
// directory; a no-op when no directory is configured. Records missing an
// Exp tag inherit exp. The write is atomic — marshal to a temp file in
// the target directory, fsync, rename — so a crashed or interrupted
// suite never leaves a truncated JSON file where a previous good one
// was, and concurrent readers only ever observe complete emissions.
func (c *Context) EmitBench(exp string, recs []BenchRecord) error {
	if c.JSONDir == "" || len(recs) == 0 {
		return nil
	}
	for i := range recs {
		if recs[i].Exp == "" {
			recs[i].Exp = exp
		}
	}
	if err := os.MkdirAll(c.JSONDir, 0o755); err != nil {
		return err
	}
	file := BenchFile{
		SchemaVersion: BenchSchemaVersion,
		GitRevision:   GitRevision(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Exp:           exp,
		Records:       recs,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(c.JSONDir, "BENCH_"+exp+".json"), append(data, '\n'))
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync and rename.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() { os.Remove(tmp) }
	if _, err := f.Write(data); err != nil {
		f.Close()
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		cleanup()
		return err
	}
	return nil
}
