package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitcolor"
)

// cfg builds a runConfig with the defaults the flag set would apply.
func cfg(mut func(*runConfig)) runConfig {
	c := runConfig{
		engine:    "bitwise",
		maxColors: 1024,
		seed:      1,
		workers:   4,
	}
	if mut != nil {
		mut(&c)
	}
	return c
}

func TestRunSoftwareEngine(t *testing.T) {
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.verbose = true })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelEngines(t *testing.T) {
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "parallelbitwise" })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c = cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "speculative"; c.workers = 2 })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunAcceleratorEngine(t *testing.T) {
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "accelerator"; c.parallelism = 4 })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	// Explicit cache size.
	c = cfg(func(c *runConfig) {
		c.dataset = "EF"
		c.engine = "accelerator"
		c.parallelism = 2
		c.cacheSize = 512
	})
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	g, err := bitcolor.Generate("EF", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := bitcolor.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	c := cfg(func(c *runConfig) { c.input = path; c.engine = "greedy" })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	// SaveGraph writes one-shard v3, the zero-copy load path: with
	// preprocessing disabled the engine reads the mapped file directly.
	c = cfg(func(c *runConfig) { c.input = path; c.engine = "dct"; c.noPrep = true; c.verbose = true })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

// TestRunFromV2File colors a BCSR v2 file from the retired writer,
// which now loads by copying, with and without preprocessing.
func TestRunFromV2File(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "graph", "testdata", "legacy-v2.bcsr")
	c := cfg(func(c *runConfig) { c.input = path; c.verbose = true })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c = cfg(func(c *runConfig) { c.input = path; c.engine = "dct"; c.noPrep = true })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoPreprocess(t *testing.T) {
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "dsatur"; c.noPrep = true })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.csv")
	c := cfg(func(c *runConfig) {
		c.dataset = "EF"
		c.engine = "accelerator"
		c.parallelism = 2
		c.cacheSize = 512
		c.timeline = path
	})
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "pe,vertex,start,end") {
		t.Fatal("timeline CSV malformed")
	}
}

func TestRunColorsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "colors.txt")
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.colorsOut = path })
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "0 ") {
		t.Fatalf("colors file malformed: %q", string(data[:10]))
	}
}

// TestRunCancelPartialStats exercises the Ctrl-C / -timeout path: a
// pre-cancelled context must abort the software run with ctx.Err()
// instead of completing or crashing.
func TestRunCancelPartialStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "parallelbitwise" })
	err := run(ctx, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunTimeoutExpired drives the -timeout wiring end to end with a
// deadline that has already passed.
func TestRunTimeoutExpired(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	c := cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "greedy" })
	err := run(ctx, c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	bg := context.Background()
	if err := run(bg, cfg(func(c *runConfig) { c.dataset = "" })); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run(bg, cfg(func(c *runConfig) { c.input = "x.txt"; c.dataset = "EF" })); err == nil {
		t.Fatal("both input and dataset accepted")
	}
	if err := run(bg, cfg(func(c *runConfig) { c.dataset = "EF"; c.engine = "quantum" })); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if err := run(bg, cfg(func(c *runConfig) { c.dataset = "XX" })); err == nil {
		t.Fatal("bogus dataset accepted")
	}
	if err := run(bg, cfg(func(c *runConfig) { c.input = "/nonexistent/file.txt" })); err == nil {
		t.Fatal("missing file accepted")
	}
}
