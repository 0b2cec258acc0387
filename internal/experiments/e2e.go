package experiments

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
)

// E2ERow is one dataset × on-disk-format measurement of the
// first-byte-to-coloring path: how long from opening the file to a
// finished (deterministic, dct w=1) coloring, split into load /
// validate / color. The load path is set against what reading and
// checksumming the same file costs (ReadCRC, the load-path guard's
// denominator), so no engine time enters the ratio.
type E2ERow struct {
	Dataset string
	// Format is the on-disk format label ("edgelist" or "bcsr-v3", a
	// one-shard file); Mapped records whether the v3 load actually
	// mapped (false on platforms that fell back to copying).
	Format string
	Mapped bool
	// Bytes is the on-disk file size.
	Bytes int64
	// Load is open-to-CSR and Validate an explicit structural re-check,
	// each the median over the row's e2ePairs loads; Color is the first
	// dct w=1 run on the first loaded graph, reported for information
	// only.
	Load, Validate, Color time.Duration
	// ReadCRC is the median of the row's e2ePairs ReadCRC runs over the
	// same file.
	ReadCRC time.Duration
	// LoadRatio is the median of the e2ePairs per-pair ratios
	// (load+validate)/ReadCRC: 1.0 would mean the load cost what reading
	// and checksumming the file does.
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

// e2ePairs is how many alternating (load + validate, ReadCRC) pairs a
// row times — which arm runs first flips every pair, as in the
// load-path guard — and LoadRatio is the median of their ratios, so
// one slow open cannot set a row. Over six full-size GD runs each on a
// 2-vCPU host the mapped file's row read 2.12–3.27× at 11 pairs,
// 2.02–2.61× at 21 and 2.20–2.62× at 31; 21 pairs take ~0.7 s there.
const e2ePairs = 21

// E2E measures the first-byte-to-coloring wall time per on-disk format.
// Each dataset is materialized in both formats in a temp directory,
// then loaded e2ePairs times per format, alternating with a ReadCRC of
// the same file; the first load is colored (dct at one worker, so the
// color stage is deterministic and allocation-light).
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

		for _, format := range e2eFormats {
			path := paths[format]
			row := E2ERow{Dataset: d.Abbrev, Format: format, Edges: prepared.NumEdges()}
			if st, err := os.Stat(path); err == nil {
				row.Bytes = st.Size()
			}
			var (
				reader               ReadCRC
				loads, checks, reads [e2ePairs]time.Duration
				pairRatios           [e2ePairs]float64
			)
			for i := range pairRatios {
				var (
					l          e2eLoad
					lerr, rerr error
				)
				if i%2 == 0 {
					l, lerr = loadE2E(path, format)
					reads[i], _, rerr = reader.Run(path)
				} else {
					reads[i], _, rerr = reader.Run(path)
					l, lerr = loadE2E(path, format)
				}
				if lerr == nil && rerr == nil && i == 0 {
					start := time.Now()
					var cres *coloring.Result
					cres, _, lerr = dct.Run(ctx.RunCtx(), l.g, opts)
					row.Color = time.Since(start)
					if lerr == nil {
						row.Colors, row.Mapped = cres.NumColors, l.m != nil && l.m.Mapped()
					}
				}
				if cerr := l.close(); lerr == nil {
					lerr = cerr
				}
				if lerr != nil {
					return nil, fmt.Errorf("%s %s: %w", d.Abbrev, format, lerr)
				}
				if rerr != nil {
					return nil, fmt.Errorf("%s read %s: %w", d.Abbrev, format, rerr)
				}
				loads[i], checks[i] = l.load, l.validate
				pairRatios[i] = float64(l.load+l.validate) / float64(reads[i])
			}
			row.Load, row.Validate, row.ReadCRC = median(loads[:]), median(checks[:]), median(reads[:])
			row.LoadRatio = median(pairRatios[:])
			ratios[format] = append(ratios[format], row.LoadRatio)
			res.Rows = append(res.Rows, row)
		}
	}
	for format, rs := range ratios {
		res.GeoRatio[format] = metrics.GeoMean(rs)
	}
	return res, nil
}

// e2eLoad is one load of an e2e file: the validated graph, the mapping
// that backs it (nil for the parsed edge list), and the two stage times.
type e2eLoad struct {
	g              *graph.CSR
	m              *graph.MappedCSR
	load, validate time.Duration
}

// loadE2E opens path as format and validates the graph, timing each
// stage. A failed load holds nothing open.
func loadE2E(path, format string) (l e2eLoad, err error) {
	start := time.Now()
	switch format {
	case graph.FormatEdgeList:
		l.g, err = graph.LoadEdgeListFile(path)
	case graph.FormatBCSR3:
		if l.m, err = graph.MapCSRFile(path); err == nil {
			l.g = l.m.Graph()
		}
	}
	l.load = time.Since(start)
	if err != nil {
		return e2eLoad{}, fmt.Errorf("load: %w", err)
	}
	start = time.Now()
	err = l.g.Validate()
	l.validate = time.Since(start)
	if err != nil {
		l.close()
		return e2eLoad{}, fmt.Errorf("validate: %w", err)
	}
	return l, nil
}

// close releases the load's mapping, if it has one.
func (l e2eLoad) close() error {
	if l.m == nil {
		return nil
	}
	return l.m.Close()
}

// median returns the middle element of xs (an odd count), sorting xs.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// ReadCRC is the load path's yardstick, shared by the e2e experiment
// and the load-path guard: open a file, read it whole with ReadAt into
// a buffer kept across runs, and take one CRC32-C pass over the bytes.
// A load of the same file moves the same bytes out of the page cache
// through a checksum, so a ratio of the two moves with what the load
// adds and with nothing an engine does.
type ReadCRC struct{ buf []byte }

// Run makes one pass over path and returns how long it took and the
// file's CRC32-C.
func (r *ReadCRC) Run(path string) (elapsed time.Duration, sum uint32, err error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	st, err := f.Stat()
	if err == nil {
		if int64(len(r.buf)) != st.Size() {
			r.buf = make([]byte, st.Size())
		}
		_, err = f.ReadAt(r.buf, 0)
	}
	if err == nil {
		sum = crc32.Checksum(r.buf, castagnoli)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return time.Since(start), sum, err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Print writes the end-to-end load-path table.
func (r *E2EResult) Print(ctx *Context) {
	t := Table{
		Title: "End-to-end load path: first byte to finished coloring (dct w=1) per on-disk format",
		Header: []string{"Graph", "Format", "mapped", "bytes", "load_ms", "validate_ms",
			"color_ms", "read_crc_ms", "ratio"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Format, fmt.Sprint(row.Mapped), fmt.Sprint(row.Bytes),
			fmt.Sprintf("%.3f", row.Load.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.Validate.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.Color.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.ReadCRC.Seconds()*1e3),
			fmt.Sprintf("%.2fx", row.LoadRatio))
	}
	t.Render(ctx)
	for _, format := range e2eFormats {
		if geo, ok := r.GeoRatio[format]; ok {
			fmt.Fprintf(ctx.Out, "geomean load ratio %-9s %.2fx (load+validate over read+CRC32-C of the same file)\n",
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
