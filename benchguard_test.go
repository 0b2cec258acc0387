package bitcolor

// Benchmark guard: CI smoke checks (env-gated behind BITCOLOR_BENCHGUARD=1
// so ordinary `go test ./...` stays fast and flake-free) that pin two
// performance contracts of the observability layer:
//
//  1. ParallelBitwise ns/edge with a nil observer must not regress more
//     than 10% against the recorded baseline. Raw ns/edge is machine-
//     bound, so the guard compares a *ratio*: ParallelBitwise wall time
//     normalized by the sequential bitwise engine measured in the same
//     process on the same graph. Machine speed cancels; only a relative
//     slowdown of the instrumented engine moves the ratio.
//  2. A live observer must stay off the hot path: with an observer
//     attached, ns/edge may exceed the nil-observer run by at most 2%
//     (span work happens only at round boundaries).

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"bitcolor/internal/experiments"
)

const benchGuardEnv = "BITCOLOR_BENCHGUARD"

type benchBaseline struct {
	SchemaVersion int     `json:"schema_version"`
	Note          string  `json:"note"`
	GDRatio       float64 `json:"parallelbitwise_gd_vs_bitwise_ratio"`
	DCTRatio      float64 `json:"dct_gd_vs_bitwise_ratio"`
	// LoadRatio is (OpenGraphFile + Close of a one-shard BCSR v3 file,
	// mapped in place) / (one CRC32-C pass over the same bytes in memory)
	// on GD, the median of per-pair ratios over interleaved pairs — the
	// zero-copy load path against the bytes it must read.
	LoadRatio float64 `json:"load_vs_crc32c_ratio"`
	// ShardRatio is sharded (shards=1, one worker) / dct (one worker) on
	// GD — the sharded entry point's dispatch overhead over the DCT loop
	// it delegates to at a single shard (should sit near 1.0).
	ShardRatio float64 `json:"shard_gd_vs_dct_ratio"`
	// ExecRatio is exec.Blocks / pre-refactor inline cursor loop on the
	// synthetic dispatch workload at one worker — the shared substrate's
	// per-block overhead (should sit near 1.0). Guarded at a tight ×1.05
	// because the workload is pure dispatch with no kernel noise.
	ExecRatio float64 `json:"exec_dispatch_ratio"`
	// OutOfCoreRatio is streamed sharded coloring (BCSR v3 handle,
	// shards=4, residency 2, one worker, cached partition) / in-core
	// sharded (same shape, partition rebuilt per run) on GD — the ordered
	// stream's shard maps against the in-core partition bookkeeping and
	// frontier phase.
	OutOfCoreRatio float64 `json:"outofcore_stream_vs_sharded_ratio"`
}

func loadBaseline(t *testing.T) benchBaseline {
	t.Helper()
	data, err := os.ReadFile("testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.SchemaVersion != 1 || b.GDRatio <= 0 || b.DCTRatio <= 0 || b.LoadRatio <= 0 || b.ShardRatio <= 0 || b.ExecRatio <= 0 || b.OutOfCoreRatio <= 0 {
		t.Fatalf("implausible baseline %+v", b)
	}
	return b
}

// guardGraph builds a preprocessed Table 3 stand-in for the guards.
func guardGraph(t *testing.T, abbrev string) *Graph {
	t.Helper()
	g, err := Generate(abbrev, 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	return prepared
}

// minTimePair interleaves n runs of a and b, alternating which goes
// first each iteration, and returns the per-arm minimum. Running the
// arms back-to-back in separate phases lets slow drift (GC pacing, CPU
// frequency) masquerade as a difference between them; interleaving
// makes both arms sample the same conditions.
func minTimePair(n int, a, b func()) (minA, minB time.Duration) {
	minA, minB = time.Duration(1<<63-1), time.Duration(1<<63-1)
	time1 := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	for i := 0; i < n; i++ {
		var da, db time.Duration
		if i%2 == 0 {
			da, db = time1(a), time1(b)
		} else {
			db, da = time1(b), time1(a)
		}
		if da < minA {
			minA = da
		}
		if db < minB {
			minB = db
		}
	}
	return minA, minB
}

// bitwisePairs is the pair count of the two guards that normalize an
// engine by sequential bitwise, chosen from the measured spread on a
// 2-CPU host: over six runs each, the run medians read DCT 0.684–0.690
// and ParallelBitwise 0.801–0.838 at 101 pairs, and 0.682–0.687 and
// 0.815–0.827 at 301 (about 1 s per guard). What spread remains lies
// between runs, not pairs (DCT read 0.66–0.70 over 36 runs of 301), so
// more pairs would not narrow it. At 301 a run passes inside the 10%
// tolerance and fails when the guarded arm does 20% more work.
const bitwisePairs = 301

// engineVsBitwise returns the median of bitwisePairs alternating
// per-pair ratios of engine e at one worker over sequential bitwise on
// the preprocessed GD stand-in.
func engineVsBitwise(t *testing.T, e Engine) float64 {
	t.Helper()
	prepared := guardGraph(t, "GD")
	bitwise := func() {
		if _, err := Color(prepared, ColorOptions{Engine: EngineBitwise}); err != nil {
			t.Fatal(err)
		}
	}
	engine := func() {
		if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
			Engine: e, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	medianPairRatio(bitwisePairs/10, engine, bitwise) // warm the engines and the allocator
	return medianPairRatio(bitwisePairs, engine, bitwise)
}

func TestBenchGuardParallelBitwiseRegression(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the benchmark regression guard", benchGuardEnv)
	}
	base := loadBaseline(t)
	ratio := engineVsBitwise(t, EngineParallelBitwise)
	limit := base.GDRatio * 1.10
	t.Logf("parallelbitwise / bitwise: median of %d pair ratios %.4f (baseline %.4f, limit %.4f)",
		bitwisePairs, ratio, base.GDRatio, limit)
	if ratio > limit {
		t.Fatalf("ParallelBitwise regressed: ratio %.4f exceeds baseline %.4f by more than 10%%",
			ratio, base.GDRatio)
	}
}

func TestBenchGuardDCTRegression(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the benchmark regression guard", benchGuardEnv)
	}
	base := loadBaseline(t)
	ratio := engineVsBitwise(t, EngineDCT)
	limit := base.DCTRatio * 1.10
	t.Logf("dct / bitwise: median of %d pair ratios %.4f (baseline %.4f, limit %.4f)",
		bitwisePairs, ratio, base.DCTRatio, limit)
	if ratio > limit {
		t.Fatalf("DCT engine regressed: ratio %.4f exceeds baseline %.4f by more than 10%%",
			ratio, base.DCTRatio)
	}
}

// shardPairs is the sharded guard's pair count, chosen from the
// measured spread on a 2-CPU host: over six runs each, the run medians
// read 0.972–1.017 at 101 pairs, 0.988–1.004 at 301 and 0.992–1.006 at
// 1001. At 301 (about 2 s) a run passes well inside the 10% tolerance
// and fails when the sharded arm does 20% more work.
const shardPairs = 301

// TestBenchGuardShardedRegression pins the sharded engine's single-shard
// interior path against plain DCT at one worker: shards=1 delegates to
// the same owner-computes loop, so the median of shardPairs alternating
// per-pair ratios should hold near 1.0 and may not drift more than 10%
// above the recorded baseline. A host speed flip lands on both arms of
// a pair, and the median drops the pairs it splits.
func TestBenchGuardShardedRegression(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the sharded regression guard", benchGuardEnv)
	}
	prepared := guardGraph(t, "GD")
	base := loadBaseline(t)

	dct := func() {
		if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
			Engine: EngineDCT, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sharded := func() {
		if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
			Engine: EngineSharded, ShardCount: 1, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	medianPairRatio(shardPairs/10, sharded, dct) // warm the engines and the allocator
	ratio := medianPairRatio(shardPairs, sharded, dct)
	limit := base.ShardRatio * 1.10
	t.Logf("sharded(s=1) / dct at one worker: median of %d pair ratios %.4f (baseline %.4f, limit %.4f)",
		shardPairs, ratio, base.ShardRatio, limit)
	if ratio > limit {
		t.Fatalf("sharded single-shard path regressed: ratio %.4f exceeds baseline %.4f by more than 10%%",
			ratio, base.ShardRatio)
	}
}

// TestBenchGuardExecDispatchOverhead pins the shared dispatch substrate
// against the inline cursor loops it replaced: exec.Blocks on a
// synthetic block workload at one worker may cost at most 5% more,
// relative to the hand-rolled atomic-cursor goroutine loop measured in
// the same process, than the recorded baseline ratio. The bound is
// tighter than the engine guards' 10% because the workload is pure
// dispatch — any drift here is substrate overhead, not kernel noise.
func TestBenchGuardExecDispatchOverhead(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the dispatch overhead guard", benchGuardEnv)
	}
	base := loadBaseline(t)
	// Both arms are the exec experiment's and run one worker, so the
	// comparison isolates per-block dispatch cost from goroutine
	// scheduling.
	work := experiments.NewDispatchWork(1)
	var inlineSum, execSum uint64
	inline := func() { inlineSum = work.Inline(1) }
	blocks := func() {
		sum, err := work.Blocks(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		execSum = sum
	}
	// The 5% bound is tight against a ~2ms workload, so like the observer
	// guard this one retries: a single GC pause or scheduler hiccup
	// landing in the exec arm fakes a regression once, a real regression
	// fails every attempt.
	limit := base.ExecRatio * 1.05
	var ratio float64
	for attempt := 1; ; attempt++ {
		runtime.GC()
		inlineT, execT := minTimePair(9, inline, blocks)
		if inlineSum != execSum {
			t.Fatalf("checksum mismatch: inline %#x vs exec.Blocks %#x — the arms did different work", inlineSum, execSum)
		}
		ratio = float64(execT) / float64(inlineT)
		t.Logf("attempt %d: exec.Blocks %v / inline %v = ratio %.4f (baseline %.4f, limit %.4f)",
			attempt, execT, inlineT, ratio, base.ExecRatio, limit)
		if ratio <= limit || attempt == 3 {
			break
		}
	}
	if ratio > limit {
		t.Fatalf("exec dispatch overhead regressed: ratio %.4f exceeds baseline %.4f by more than 5%% on every attempt",
			ratio, base.ExecRatio)
	}
}

// loadPairs is the pair count of the load-path guard, chosen from the
// measured spread on a 2-CPU host: single pair ratios spread about ±12%
// around their median (quartiles); over 301 pairs the medians of
// separate runs moved by −11%/+11%, as wide as the 10% tolerance, and
// over 1001 pairs (about 1.5 s) by −8%/+6%, so a run passes at the
// baseline and fails when the load arm does 20% more work.
const loadPairs = 1001

// medianPairRatio times n alternating pairs of a and b — which arm runs
// first flips every pair, so both sample the same host state — and
// returns the median of the per-pair ratios a/b. A speed flip of the
// host lands on both arms of a pair, and the median drops the pairs it
// splits.
func medianPairRatio(n int, a, b func()) float64 {
	time1 := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	ratios := make([]float64, n)
	for i := range ratios {
		var da, db float64
		if i%2 == 0 {
			da, db = time1(a), time1(b)
		} else {
			db, da = time1(b), time1(a)
		}
		ratios[i] = da / db
	}
	slices.Sort(ratios)
	return ratios[n/2]
}

// TestBenchGuardLoadPathRatio pins the zero-copy load path: opening a
// mapped one-shard BCSR v3 file of GD and closing it, over opening the
// same file, reading its bytes into a buffer and taking one CRC32-C pass
// across them (experiments.ReadCRC, which the e2e experiment's ratio
// divides by too). Both arms move the file's bytes out of the page cache
// through a checksum, so the ratio moves with what the open adds —
// mapping, header and meta parsing, validation — and with nothing an
// engine does. The median of loadPairs per-pair ratios may exceed the
// recorded baseline by at most 10%.
func TestBenchGuardLoadPathRatio(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the load-path regression guard", benchGuardEnv)
	}
	prepared := guardGraph(t, "GD")
	base := loadBaseline(t)
	path := filepath.Join(t.TempDir(), "gd.bcsr")
	if err := SaveGraph(path, prepared); err != nil {
		t.Fatal(err)
	}
	// The guard measures the mapped path; a fallback to the copying
	// reader would silently inflate the ratio, so check once up front.
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mapped() {
		h.Close()
		t.Skip("mmap unavailable on this platform — the guard pins the mapped path only")
	}
	h.Close()

	load := func() {
		h, err := OpenGraphFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var (
		reader experiments.ReadCRC
		sum    uint32
	)
	crc := func() {
		_, s, err := reader.Run(path)
		if err != nil {
			t.Fatal(err)
		}
		sum ^= s
	}
	medianPairRatio(loadPairs/10, load, crc) // warm the page cache and the allocator
	ratio := medianPairRatio(loadPairs, load, crc)
	limit := base.LoadRatio * 1.10
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mapped open+close / read+CRC32-C of the same %d bytes: median of %d pair ratios %.4f (baseline %.4f, limit %.4f; crc %08x)",
		fi.Size(), loadPairs, ratio, base.LoadRatio, limit, sum)
	if ratio > limit {
		t.Fatalf("mapped load path regressed: ratio %.4f exceeds baseline %.4f by more than 10%%",
			ratio, base.LoadRatio)
	}
}

// TestBenchGuardOutOfCoreOverhead pins the streaming executor against
// the in-core sharded engine at the same shape (shards=4, one worker)
// on GD: the streamed arm colors through a 2-shard residency window off
// a BCSR v3 handle with the cached partition, the in-core arm holds the
// whole graph resident and rebuilds the partition per run. The ratio
// may not drift more than 10% above the recorded baseline; like the
// observer guard it retries, since a GC pause landing in the mmap-heavy
// streamed arm fakes a regression once but not three times.
func TestBenchGuardOutOfCoreOverhead(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the out-of-core overhead guard", benchGuardEnv)
	}
	prepared := guardGraph(t, "GD")
	base := loadBaseline(t)
	path := filepath.Join(t.TempDir(), "gd.v3.bcsr")
	if err := SaveGraphV3(path, prepared, 4, PartitionRanges); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFileOutOfCore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	limit := base.OutOfCoreRatio * 1.10
	var ratio float64
	for attempt := 1; ; attempt++ {
		runtime.GC()
		incore, streamed := minTimePair(9, func() {
			if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
				Engine: EngineSharded, ShardCount: 4, Workers: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}, func() {
			if _, _, err := ColorHandle(h, ColorOptions{
				Engine: EngineSharded, Workers: 1, MaxResidentShards: 2,
			}); err != nil {
				t.Fatal(err)
			}
		})
		ratio = float64(streamed) / float64(incore)
		t.Logf("attempt %d: streamed %v / in-core sharded %v = ratio %.4f (baseline %.4f, limit %.4f)",
			attempt, streamed, incore, ratio, base.OutOfCoreRatio, limit)
		if ratio <= limit || attempt == 3 {
			break
		}
	}
	if ratio > limit {
		t.Fatalf("out-of-core streaming regressed: ratio %.4f exceeds baseline %.4f by more than 10%% on every attempt",
			ratio, base.OutOfCoreRatio)
	}
}

func TestBenchGuardObserverOverhead(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the observer overhead guard", benchGuardEnv)
	}
	// The per-run instrumentation cost is a near-constant handful of
	// microseconds (one engine span, round-boundary spans, one family
	// fold) — measure on the largest-but-one stand-in (CO, ~3.8M edges,
	// ~20ms/run) so that constant and the scheduler's timeslice noise
	// are both well under the 2% bound rather than comparable to it.
	prepared := guardGraph(t, "CO")

	// One observer across iterations: the guard bounds the engine's
	// per-run instrumentation cost, not Observer construction.
	o := NewObserver()
	ctx := WithObserver(context.Background(), o)

	// A single GC pause landing inside one arm's every iteration can fake
	// a multi-percent gap, so the guard retries: a real regression fails
	// all attempts, a one-off pause doesn't.
	var overhead float64
	for attempt := 1; ; attempt++ {
		runtime.GC()
		nilObs, withObs := minTimePair(9, func() {
			if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
				Engine: EngineParallelBitwise, Workers: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}, func() {
			if _, _, err := ColorContext(ctx, prepared, ColorOptions{
				Engine: EngineParallelBitwise, Workers: 1,
			}); err != nil {
				t.Fatal(err)
			}
		})
		overhead = float64(withObs)/float64(nilObs) - 1
		t.Logf("attempt %d: nil observer %v, live observer %v, overhead %.2f%%",
			attempt, nilObs, withObs, 100*overhead)
		if overhead <= 0.02 || attempt == 3 {
			break
		}
	}
	if overhead > 0.02 {
		t.Fatalf("live-observer overhead %.2f%% exceeds the 2%% bound on every attempt", 100*overhead)
	}
	if o.SpanCount("engine/parallelbitwise") == 0 {
		t.Fatal("observer arm recorded no spans — the comparison measured nothing")
	}
}

// TestBenchGuardIntrospectionOverhead pins the run-registry plane's two
// cost contracts on top of the observer guard above:
//
//  1. An UNOBSERVED run through a pool pays only the admission
//     telemetry (a handful of counter bumps under the mutex the
//     admission path already holds) — bounded at 2% against the bare
//     nil-observer run, and in practice ≈0%.
//  2. An OBSERVED run — registry registration, armed live mirrors,
//     per-block atomic publishes, flight-recorder deregistration — may
//     cost at most 2% over the nil-observer run.
//
// Both arms of each pair are interleaved in-process so machine speed
// cancels; the guard retries so a one-off GC pause doesn't fake a
// regression. The observed arm must actually land in the flight
// recorder — otherwise the guard would be measuring a path that never
// engaged the registry.
func TestBenchGuardIntrospectionOverhead(t *testing.T) {
	if os.Getenv(benchGuardEnv) == "" {
		t.Skipf("set %s=1 to run the introspection overhead guard", benchGuardEnv)
	}
	prepared := guardGraph(t, "CO")
	pool := NewPool(1)
	o := NewObserver()
	ctx := WithObserver(context.Background(), o)

	nilRun := func() {
		if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
			Engine: EngineParallelBitwise, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pooledRun := func() {
		if _, _, err := ColorContext(context.Background(), prepared, ColorOptions{
			Engine: EngineParallelBitwise, Workers: 1, Pool: pool,
		}); err != nil {
			t.Fatal(err)
		}
	}
	liveRun := func() {
		if _, _, err := ColorContext(ctx, prepared, ColorOptions{
			Engine: EngineParallelBitwise, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	recordedBefore := 0
	for _, s := range RecentRuns() {
		if s.RunID == o.RunID() {
			recordedBefore++
		}
	}

	check := func(name string, arm func(), bound float64) {
		var overhead float64
		for attempt := 1; ; attempt++ {
			runtime.GC()
			bare, instrumented := minTimePair(9, nilRun, arm)
			overhead = float64(instrumented)/float64(bare) - 1
			t.Logf("%s attempt %d: nil %v, %s %v, overhead %.2f%%",
				name, attempt, bare, name, instrumented, 100*overhead)
			if overhead <= bound || attempt == 3 {
				break
			}
		}
		if overhead > bound {
			t.Fatalf("%s overhead %.2f%% exceeds the %.0f%% bound on every attempt",
				name, 100*overhead, 100*bound)
		}
	}
	check("pooled-unobserved", pooledRun, 0.02)
	check("live-registry", liveRun, 0.02)

	recordedAfter := 0
	for _, s := range RecentRuns() {
		if s.RunID == o.RunID() {
			recordedAfter++
		}
	}
	if recordedAfter <= recordedBefore {
		t.Fatal("observed arm never reached the flight recorder — the guard measured nothing")
	}
}
