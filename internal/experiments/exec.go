package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitcolor/internal/exec"
)

// The exec experiment measures what the PR-8 refactor cost: the four
// parallel engines used to hand-roll their own atomic cursor and
// go/WaitGroup spawn, and now route through exec.Blocks (shared cursor,
// ctx-stride polling, first-error collection). This micro-benchmark runs
// the same synthetic block workload through both shapes so the dispatch
// overhead is isolated from any coloring kernel, and benchguard times
// the same two arms so the substrate can never quietly grow slower than
// the inline loops it replaced.

// execBenchItems sizes the synthetic workload: 2^21 items at ~4 ops each
// is long enough that per-block dispatch overhead is the measured
// quantity, not goroutine startup.
const execBenchItems = 1 << 21

// DispatchWork is the dispatch yardstick, shared by the exec experiment
// and the dispatch-overhead guard: execBenchItems items that either
// dispatch shape walks in exec.DispatchBlock blocks, running the same
// per-block kernel.
type DispatchWork []uint64

// NewDispatchWork fills the workload deterministically from seed.
func NewDispatchWork(seed int64) DispatchWork {
	d := make(DispatchWork, execBenchItems)
	for i := range d {
		// Deterministic non-trivial fill (splitmix-style increment).
		d[i] = uint64(i)*0x9e3779b97f4a7c15 + uint64(seed)
	}
	return d
}

// workRange is the per-block kernel both arms run: a cheap xorshift
// mix folded into an accumulator, standing in for a speculation loop's
// per-vertex work. The returned checksum keeps the compiler from
// discarding the loop and lets a caller assert both dispatch shapes
// visited exactly the same items.
func (d DispatchWork) workRange(lo, hi int) uint64 {
	var acc uint64
	for _, x := range d[lo:hi] {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	return acc
}

// Inline replicates the pre-refactor engine scaffolding verbatim: a
// private atomic block cursor claimed in DispatchBlock chunks by
// hand-spawned goroutines joined on a WaitGroup. It returns the
// workload's checksum.
func (d DispatchWork) Inline(workers int) uint64 {
	var cursor atomic.Int64
	var sum atomic.Uint64
	n := int64(len(d))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc uint64
			for {
				lo := cursor.Add(exec.DispatchBlock) - exec.DispatchBlock
				if lo >= n {
					break
				}
				hi := lo + exec.DispatchBlock
				if hi > n {
					hi = n
				}
				acc += d.workRange(int(lo), int(hi))
			}
			sum.Add(acc)
		}()
	}
	wg.Wait()
	return sum.Load()
}

// Blocks runs the identical workload through the shared substrate the
// engines now use and returns the same checksum as Inline.
func (d DispatchWork) Blocks(ctx context.Context, workers int) (uint64, error) {
	var cur exec.BlockCursor
	cur.Reset(len(d))
	// One padded slot per worker so the accumulators don't false-share.
	sums := make([]uint64, workers*8)
	err := exec.Blocks(ctx, workers, &cur, func(w, lo, hi int) error {
		sums[w*8] += d.workRange(lo, hi)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for w := 0; w < workers; w++ {
		total += sums[w*8]
	}
	return total, nil
}

// ExecRow is one worker-count measurement of both dispatch shapes.
type ExecRow struct {
	Workers    int
	InlineTime time.Duration
	ExecTime   time.Duration
	// Ratio is ExecTime/InlineTime — >1 means the substrate is slower.
	Ratio float64
}

// ExecResult is the dispatch-overhead study.
type ExecResult struct {
	Items int
	Rows  []ExecRow
}

// ExecDispatch measures exec.Blocks against the pre-refactor inline
// cursor loop on the synthetic workload at 1, 2 and 4 workers.
func ExecDispatch(ctx *Context) (*ExecResult, error) {
	work := NewDispatchWork(ctx.Seed)
	res := &ExecResult{Items: len(work)}
	best := func(f func() (uint64, error)) (time.Duration, uint64, error) {
		var (
			bestD time.Duration
			sum   uint64
		)
		for i := 0; i < 3; i++ {
			start := time.Now()
			s, err := f()
			d := time.Since(start)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || d < bestD {
				bestD = d
			}
			sum = s
		}
		return bestD, sum, nil
	}
	for _, w := range []int{1, 2, 4} {
		inlineD, inlineSum, err := best(func() (uint64, error) {
			return work.Inline(w), nil
		})
		if err != nil {
			return nil, err
		}
		execD, execSum, err := best(func() (uint64, error) {
			return work.Blocks(ctx.RunCtx(), w)
		})
		if err != nil {
			return nil, err
		}
		if inlineSum != execSum {
			return nil, fmt.Errorf("exec: w=%d checksum mismatch: inline %#x vs exec.Blocks %#x", w, inlineSum, execSum)
		}
		res.Rows = append(res.Rows, ExecRow{
			Workers:    w,
			InlineTime: inlineD,
			ExecTime:   execD,
			Ratio:      float64(execD) / float64(inlineD),
		})
	}
	return res, nil
}

// Print writes the dispatch-overhead table.
func (r *ExecResult) Print(ctx *Context) {
	t := Table{
		Title:  fmt.Sprintf("exec.Blocks dispatch overhead vs pre-refactor inline cursor loop (%d items, best of 3)", r.Items),
		Header: []string{"W", "inline_ms", "exec_ms", "exec/inline"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Workers),
			fmt.Sprintf("%.3f", row.InlineTime.Seconds()*1e3),
			fmt.Sprintf("%.3f", row.ExecTime.Seconds()*1e3),
			f2(row.Ratio))
	}
	t.Render(ctx)
}

// BenchRecords converts the rows to machine-readable form, one record
// per dispatch shape per worker count. The synthetic workload has no
// dataset or edges; NsPerEdge carries ns per item instead.
func (r *ExecResult) BenchRecords() []BenchRecord {
	recs := make([]BenchRecord, 0, 2*len(r.Rows))
	for _, row := range r.Rows {
		items := float64(r.Items)
		recs = append(recs,
			BenchRecord{
				Dataset: "synthetic", Engine: "inline", Workers: row.Workers,
				WallNanos: row.InlineTime.Nanoseconds(),
				NsPerEdge: float64(row.InlineTime.Nanoseconds()) / items,
			},
			BenchRecord{
				Dataset: "synthetic", Engine: "execblocks", Workers: row.Workers,
				WallNanos: row.ExecTime.Nanoseconds(),
				NsPerEdge: float64(row.ExecTime.Nanoseconds()) / items,
			})
	}
	return recs
}
