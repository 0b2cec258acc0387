package bitcolor

import (
	"context"
	"errors"
	"testing"
	"time"
)

func pipelineGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate("EF", 21)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func stageNames(pr *PipelineResult) []string {
	names := make([]string, len(pr.Stages))
	for i, s := range pr.Stages {
		names[i] = s.Name
	}
	return names
}

func TestPipelineRunStages(t *testing.T) {
	g := pipelineGraph(t)
	pr, err := Pipeline{Color: ColorOptions{Engine: EngineBitwise}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"preprocess", "color", "verify"}
	got := stageNames(pr)
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	var sum time.Duration
	for _, s := range pr.Stages {
		if s.Duration < 0 {
			t.Fatalf("stage %s has negative duration", s.Name)
		}
		sum += s.Duration
	}
	if pr.Total != sum {
		t.Fatalf("Total %v != stage sum %v", pr.Total, sum)
	}
	// The result must be proper on the ORIGINAL graph — the permutation
	// was undone.
	if err := Verify(g, pr.Result.Colors); err != nil {
		t.Fatal(err)
	}
	if pr.StageDuration("color") != pr.Stages[1].Duration {
		t.Fatal("StageDuration lookup broken")
	}
	if pr.StageDuration("nope") != 0 {
		t.Fatal("StageDuration invented a stage")
	}
}

// TestPipelineUnpermutation pins the color mapping: the pipeline must
// return exactly the colors a manual preprocess + color + un-permute
// produces.
func TestPipelineUnpermutation(t *testing.T) {
	g := pipelineGraph(t)
	pr, err := Pipeline{Color: ColorOptions{Engine: EngineBitwise}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	prepared, perm, err := PreprocessWithPermutation(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(prepared, ColorOptions{Engine: EngineBitwise})
	if err != nil {
		t.Fatal(err)
	}
	for old, newID := range perm {
		if pr.Result.Colors[old] != res.Colors[newID] {
			t.Fatalf("vertex %d: pipeline color %d, manual un-permute %d",
				old, pr.Result.Colors[old], res.Colors[newID])
		}
	}
}

func TestPipelineSkipPreprocess(t *testing.T) {
	g := pipelineGraph(t)
	pr, err := Pipeline{SkipPreprocess: true, Color: ColorOptions{Engine: EngineGreedy}}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got := stageNames(pr)
	if len(got) != 2 || got[0] != "color" || got[1] != "verify" {
		t.Fatalf("stages = %v, want [color verify]", got)
	}
	direct, err := Color(g, ColorOptions{Engine: EngineGreedy})
	if err != nil {
		t.Fatal(err)
	}
	for v := range direct.Colors {
		if pr.Result.Colors[v] != direct.Colors[v] {
			t.Fatalf("vertex %d: pipeline %d vs direct %d", v, pr.Result.Colors[v], direct.Colors[v])
		}
	}
}

func TestPipelineImproveStage(t *testing.T) {
	g := pipelineGraph(t)
	pr, err := Pipeline{
		Color:   ColorOptions{Engine: EngineBitwise},
		Improve: ImproveOptions{IteratedRounds: 3, Seed: 5},
	}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got := stageNames(pr)
	if len(got) != 4 || got[2] != "improve" {
		t.Fatalf("stages = %v, want improve third", got)
	}
	if err := Verify(g, pr.Result.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineStatsSurface proves the stats-discard bug is gone: a
// parallel engine's run statistics come back through the pipeline (and
// through ColorContext) instead of being silently dropped.
func TestPipelineStatsSurface(t *testing.T) {
	g := pipelineGraph(t)
	pr, err := Pipeline{
		Color: ColorOptions{Engine: EngineParallelBitwise, Workers: 3},
	}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Stats.Workers != 3 || pr.Stats.Rounds < 1 {
		t.Fatalf("parallel stats lost through the pipeline: %+v", pr.Stats)
	}

	res, st, err := ColorContext(context.Background(), g, ColorOptions{Engine: EngineSpeculative, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Rounds < 1 {
		t.Fatalf("ColorContext dropped stats: %+v", st)
	}
}

// TestPipelineCancelReturnsPartial asserts a cancelled pipeline reports
// the stages completed so far rather than dying with nothing.
func TestPipelineCancelReturnsPartial(t *testing.T) {
	g := pipelineGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, err := Pipeline{Color: ColorOptions{Engine: EngineBitwise}}.Run(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if pr == nil {
		t.Fatal("no partial result on cancellation")
	}
	if pr.Result != nil {
		t.Fatal("cancelled pipeline returned a full result")
	}
}

// TestColorContextCancelEveryEngine is the API-level acceptance check:
// every registered engine must surface ctx.Err() through ColorContext on
// a pre-cancelled context.
func TestColorContextCancelEveryEngine(t *testing.T) {
	g := pipelineGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Engines() {
		_, _, err := ColorContext(ctx, g, ColorOptions{Engine: e, Workers: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", e, err)
		}
	}
}

// TestEngineInfoMetadata spot-checks the registry metadata surfaced on
// the public Engine type.
func TestEngineInfoMetadata(t *testing.T) {
	info, ok := EngineParallelBitwise.Info()
	if !ok || !info.Parallel || info.Name != "parallelbitwise" {
		t.Fatalf("EngineParallelBitwise.Info() = %+v, %v", info, ok)
	}
	if _, ok := Engine(999).Info(); ok {
		t.Fatal("bogus engine has Info")
	}
	names := EngineNames()
	if len(names) != len(Engines()) {
		t.Fatalf("EngineNames length %d vs Engines %d", len(names), len(Engines()))
	}
}
