package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
)

// E2ERow is one dataset × on-disk-format measurement of the
// first-byte-to-coloring path: how long from opening the file to a
// finished (deterministic, dct w=1) coloring, split into load /
// validate / color, against the warm pure-color time on the already
// resident graph.
type E2ERow struct {
	Dataset string
	// Format is the on-disk format label ("edgelist" or "bcsr-v3", a
	// one-shard file); Mapped records whether the v3 load actually
	// mapped (false on platforms that fell back to copying).
	Format string
	Mapped bool
	// Bytes is the on-disk file size.
	Bytes int64
	// Load is open-to-CSR; Validate an explicit structural re-check;
	// Color the first dct w=1 run on the freshly loaded graph.
	Load, Validate, Color time.Duration
	// PureColor is the fastest of several warm runs on the resident
	// graph — the denominator that makes LoadRatio machine-portable.
	PureColor time.Duration
	// LoadRatio is (Load+Validate+Color)/PureColor: 1.0 would mean the
	// load added nothing over coloring a graph already in memory.
	LoadRatio float64
	Colors    int
	Edges     int64
}

// E2EResult is the end-to-end load-path comparison: text edge list vs
// mapped one-shard BCSR v3, per dataset, with geometric means per
// format across datasets.
type E2EResult struct {
	Rows []E2ERow
	// GeoRatio maps format → geomean LoadRatio across datasets.
	GeoRatio map[string]float64
}

// e2eFormats lists the load-path arms in report order.
var e2eFormats = []string{graph.FormatEdgeList, graph.FormatBCSR3}

// E2E measures the first-byte-to-coloring wall time per on-disk format.
// Each dataset is materialized in both formats in a temp directory,
// then loaded and colored once per format (dct at one worker, so the
// color stage is deterministic and allocation-light); the warm
// pure-color time on the resident graph anchors the ratio.
func E2E(ctx *Context) (*E2EResult, error) {
	dct, ok := coloring.Lookup("dct")
	if !ok {
		return nil, fmt.Errorf("e2e: dct engine missing from registry")
	}
	dir, err := os.MkdirTemp("", "bitcolor-e2e-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &E2EResult{GeoRatio: map[string]float64{}}
	ratios := map[string][]float64{}
	opts := coloring.Options{Workers: 1}
	for _, d := range ctx.Datasets {
		_, prepared, err := ctx.BuildPrepared(d)
		if err != nil {
			return nil, err
		}
		paths := map[string]string{
			graph.FormatEdgeList: filepath.Join(dir, d.Abbrev+".txt"),
			graph.FormatBCSR3:    filepath.Join(dir, d.Abbrev+".bcsr"),
		}
		f, err := os.Create(paths[graph.FormatEdgeList])
		if err != nil {
			return nil, err
		}
		if err := graph.WriteEdgeList(f, prepared); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		if err := graph.SaveCSRFile(paths[graph.FormatBCSR3], prepared); err != nil {
			return nil, err
		}

		// Warm pure-color reference on the resident graph: best of 3
		// strips scheduler noise, and warms the dct code paths so the
		// per-format cold color isn't paying first-run effects twice.
		pure := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, _, err := dct.Run(ctx.RunCtx(), prepared, opts); err != nil {
				return nil, fmt.Errorf("%s warm dct: %w", d.Abbrev, err)
			}
			if e := time.Since(start); e < pure {
				pure = e
			}
		}

		for _, format := range e2eFormats {
			row := E2ERow{Dataset: d.Abbrev, Format: format, PureColor: pure, Edges: prepared.NumEdges()}
			if st, err := os.Stat(paths[format]); err == nil {
				row.Bytes = st.Size()
			}
			var (
				g      *graph.CSR
				closer interface{ Close() error }
			)
			start := time.Now()
			switch format {
			case graph.FormatEdgeList:
				g, err = graph.LoadEdgeListFile(paths[format])
			case graph.FormatBCSR3:
				var m *graph.MappedCSR
				m, err = graph.MapCSRFile(paths[format])
				if err == nil {
					g, closer, row.Mapped = m.Graph(), m, m.Mapped()
				}
			}
			row.Load = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s load %s: %w", d.Abbrev, format, err)
			}
			start = time.Now()
			if err := g.Validate(); err != nil {
				return nil, fmt.Errorf("%s validate %s: %w", d.Abbrev, format, err)
			}
			row.Validate = time.Since(start)
			start = time.Now()
			cres, _, err := dct.Run(ctx.RunCtx(), g, opts)
			row.Color = time.Since(start)
			if closer != nil {
				if cerr := closer.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			if err != nil {
				return nil, fmt.Errorf("%s color %s: %w", d.Abbrev, format, err)
			}
			row.Colors = cres.NumColors
			row.LoadRatio = float64(row.Load+row.Validate+row.Color) / float64(pure)
			ratios[format] = append(ratios[format], row.LoadRatio)
			res.Rows = append(res.Rows, row)
		}
	}
	for format, rs := range ratios {
		res.GeoRatio[format] = metrics.GeoMean(rs)
	}
	return res, nil
}

// Print writes the end-to-end load-path table.
func (r *E2EResult) Print(ctx *Context) {
	t := Table{
		Title: "End-to-end load path: first byte to finished coloring (dct w=1) per on-disk format",
		Header: []string{"Graph", "Format", "mapped", "bytes", "load_ms", "validate_ms",
			"color_ms", "pure_ms", "ratio"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Format, fmt.Sprint(row.Mapped), fmt.Sprint(row.Bytes),
			fmt.Sprintf("%.3f", row.Load.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.Validate.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.Color.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.PureColor.Seconds()*1e3),
			fmt.Sprintf("%.2fx", row.LoadRatio))
	}
	t.Render(ctx)
	for _, format := range e2eFormats {
		if geo, ok := r.GeoRatio[format]; ok {
			fmt.Fprintf(ctx.Out, "geomean load ratio %-9s %.2fx (1.0 = load added nothing over a resident graph)\n",
				format+":", geo)
		}
	}
}

// BenchRecords converts the rows to the machine-readable form, one
// record per dataset × format, carrying the stage breakdown in the
// additive e2e fields.
func (r *E2EResult) BenchRecords() []BenchRecord {
	recs := make([]BenchRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		variant := row.Format
		if row.Mapped {
			variant += "-mapped"
		}
		total := row.Load + row.Validate + row.Color
		recs = append(recs, BenchRecord{
			Dataset: row.Dataset, Engine: "dct", Variant: variant, Workers: 1,
			Colors: row.Colors, WallNanos: total.Nanoseconds(),
			NsPerEdge:     float64(total.Nanoseconds()) / float64(row.Edges),
			LoadNanos:     row.Load.Nanoseconds(),
			ValidateNanos: row.Validate.Nanoseconds(),
			ColorNanos:    row.Color.Nanoseconds(),
			LoadRatio:     row.LoadRatio,
		})
	}
	return recs
}
