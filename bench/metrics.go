package main

import (
	"time"

	"bitcolor/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units, and a test holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a caller of the
// library waits for and pays.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mcv_per_s", "MCV/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, named <layer>.<quantity> after
// the repository's modules. Times are medians over traced requests; counts
// and ratios are each input's median, averaged over the inputs. A metric
// of a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"graph.open_ms_p50", "ms"},
	{"graph.parse_mb_per_s", "MB/s"},
	{"graph.close_ms_p50", "ms"},
	{"graph.shard_maps", "count"},
	{"graph.peak_mapped_mb", "MB"},
	{"reorder.preprocess_ms_p50", "ms"},
	{"partition.build_ms_p50", "ms"},
	{"partition.cut_edges", "count"},
	{"partition.boundary_vertices", "count"},
	{"exec.pool_wait_ms_p50", "ms"},
	{"exec.pool_wait_frac", "fraction"},
	{"coloring.engine_ms_p50", "ms"},
	{"coloring.ns_per_edge", "ns/edge"},
	{"coloring.worker_imbalance", "ratio"},
	{"coloring.gather_hot_ratio", "fraction"},
	{"coloring.gather_merge_ratio", "fraction"},
	{"coloring.gather_pruned_per_edge", "fraction"},
	{"coloring.gather_auto_disabled", "fraction"},
	{"coloring.interior_ms_p50", "ms"},
	{"coloring.non_interior_ms_p50", "ms"},
	{"coloring.frontier_vertices", "count"},
	{"coloring.cross_shard_defers", "count"},
	{"dispatch.deferred_per_kv", "1/kV"},
	{"dispatch.defer_retries_per_kv", "1/kV"},
	{"dispatch.spin_waits", "count"},
	{"dispatch.forward_ring_peak", "count"},
	{"verify.verify_ms_p50", "ms"},
	{"verify.unpermute_ms_p50", "ms"},
	{"bench.unattributed_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

// maxUnattributed is the share of a request span its child spans may leave
// uncovered before the traced run fails: above it, the layers no longer
// account for the request.
const maxUnattributed = 0.05

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(setups []time.Duration, ph phase, rssMB float64) map[string]float64 {
	var secs []float64
	for _, d := range setups {
		secs = append(secs, d.Seconds())
	}
	var lat []float64
	var vertices int
	for _, s := range ph.samples {
		if s.err == nil {
			lat = append(lat, ms(s.latency))
			vertices += s.vertices
		}
	}
	return map[string]float64{
		"setup_s":        percentile(secs, 0.5),
		"mcv_per_s":      float64(vertices) / 1e6 / ph.wall.Seconds(),
		"latency_ms_p50": percentile(lat, 0.5),
		"latency_ms_p95": percentile(lat, 0.95),
		"peak_rss_mb":    rssMB,
	}
}

// layerMetrics computes the traced run's metrics from its per-request
// records, its latencies and its spans.
func layerMetrics(ph phase, spans []obs.SpanRecord) map[string]float64 {
	recs := ph.records
	for _, r := range recs {
		t := r.times
		engine := t["coloring.color"] - t["verify.verify"] - t["exec.pool_wait"]
		t["coloring.engine"] = engine
		if interior, ok := t["coloring.interior"]; ok {
			t["coloring.non_interior"] = engine - interior - t["partition.build"]
		}
	}
	p50 := func(key string) float64 {
		var xs []float64
		for _, r := range recs {
			if d, ok := r.times[key]; ok {
				xs = append(xs, ms(d))
			}
		}
		return percentile(xs, 0.5)
	}
	count := func(key string) float64 {
		return perInput(recs, func(r *record) (float64, bool) {
			v, ok := r.counts[key]
			return v, ok
		})
	}
	perKV := func(key string) float64 {
		return perInput(recs, func(r *record) (float64, bool) {
			v, ok := r.counts[key]
			return 1000 * v / r.verts, ok
		})
	}
	var parse, nsPerEdge []float64
	var wait, latency time.Duration
	for _, r := range recs {
		if b, ok := r.counts["parse_bytes"]; ok {
			parse = append(parse, b/1e6/r.times["graph.open"].Seconds())
		}
		nsPerEdge = append(nsPerEdge, float64(r.times["coloring.engine"].Nanoseconds())/r.edges)
		wait += r.times["exec.pool_wait"]
		latency += r.latency
	}
	var traced, untraced []float64
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		if s.traced {
			traced = append(traced, ms(s.latency))
		} else {
			untraced = append(untraced, ms(s.latency))
		}
	}
	m := map[string]float64{
		"graph.open_ms_p50":           p50("graph.open"),
		"graph.parse_mb_per_s":        percentile(parse, 0.5),
		"graph.close_ms_p50":          p50("graph.close"),
		"graph.shard_maps":            count("graph.shard_maps"),
		"graph.peak_mapped_mb":        count("graph.peak_mapped_bytes") / 1e6,
		"reorder.preprocess_ms_p50":   p50("reorder.preprocess"),
		"partition.build_ms_p50":      p50("partition.build"),
		"partition.cut_edges":         count("partition.cut_edges"),
		"partition.boundary_vertices": count("partition.boundary_vertices"),
		"exec.pool_wait_ms_p50":       p50("exec.pool_wait"),
		"exec.pool_wait_frac":         0,
		"coloring.engine_ms_p50":      p50("coloring.engine"),
		"coloring.ns_per_edge":        percentile(nsPerEdge, 0.5),
		"coloring.worker_imbalance":   count("coloring.worker_imbalance"),
		"coloring.gather_hot_ratio":   count("coloring.gather_hot_ratio"),
		"coloring.gather_merge_ratio": count("coloring.gather_merge_ratio"),
		"coloring.gather_pruned_per_edge": perInput(recs, func(r *record) (float64, bool) {
			v, ok := r.counts["gather_pruned"]
			return v / r.edges, ok
		}),
		"coloring.gather_auto_disabled": count("coloring.gather_auto_disabled"),
		"coloring.interior_ms_p50":      p50("coloring.interior"),
		"coloring.non_interior_ms_p50":  p50("coloring.non_interior"),
		"coloring.frontier_vertices":    count("coloring.frontier_vertices"),
		"coloring.cross_shard_defers":   count("coloring.cross_shard_defers"),
		"dispatch.deferred_per_kv":      perKV("deferred"),
		"dispatch.defer_retries_per_kv": perKV("defer_retries"),
		"dispatch.spin_waits":           count("dispatch.spin_waits"),
		"dispatch.forward_ring_peak":    count("dispatch.forward_ring_peak"),
		"verify.verify_ms_p50":          p50("verify.verify"),
		"verify.unpermute_ms_p50":       p50("verify.unpermute"),
		"bench.unattributed_frac":       unattributed(spans),
		"bench.trace_overhead_frac":     0,
	}
	if latency > 0 {
		m["exec.pool_wait_frac"] = wait.Seconds() / latency.Seconds()
	}
	if base := percentile(untraced, 0.5); base > 0 {
		m["bench.trace_overhead_frac"] = percentile(traced, 0.5)/base - 1
	}
	return m
}

// perInput takes a per-request quantity's median on each input and
// averages those over the inputs, so the result does not depend on how
// many requests each input happened to receive.
func perInput(recs []*record, f func(*record) (float64, bool)) float64 {
	by := map[int][]float64{}
	for _, r := range recs {
		if v, ok := f(r); ok {
			by[r.input] = append(by[r.input], v)
		}
	}
	if len(by) == 0 {
		return 0
	}
	var sum float64
	for _, vs := range by {
		sum += percentile(vs, 0.5)
	}
	return sum / float64(len(by))
}

// unattributed is the median share of a request span that none of its
// child spans covers. The children of a request run one after another, so
// their durations add up to the time they cover.
func unattributed(spans []obs.SpanRecord) float64 {
	covered := map[int64]time.Duration{}
	for _, s := range spans {
		covered[s.Parent] += s.Duration()
	}
	var fr []float64
	for _, s := range spans {
		if s.Name == "request" && s.Duration() > 0 {
			fr = append(fr, float64(s.Duration()-covered[s.ID])/float64(s.Duration()))
		}
	}
	return percentile(fr, 0.5)
}
