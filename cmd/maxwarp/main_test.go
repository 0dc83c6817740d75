package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
)

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"run", "-exp", "E99"},
		{"run", "-format", "yaml", "-exp", "E1"},
		{"bfs", "-preset", "nope"},
		{"bfs", "-preset", "RoadNet-like", "-graph", "x.bin"},
		{"algo", "-name", "nope", "-scale", "6"},
		{"info", "-graph", "/does/not/exist"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestHelpAndList(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "e1.md")
	if err := run([]string{"run", "-exp", "E1", "-scale", "7", "-format", "md", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "E1") {
		t.Fatalf("output missing table: %s", data)
	}
	// csv and text formats to stdout.
	if err := run([]string{"run", "-exp", "E1", "-scale", "7", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-exp", "E1,E2", "-scale", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSSubcommandOnPresetAndFile(t *testing.T) {
	if err := run([]string{"bfs", "-preset", "RoadNet-like", "-scale", "8", "-k", "4"}); err != nil {
		t.Fatal(err)
	}
	// Via a graph file (binary).
	g, err := gengraph.UniformRandom(128, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"bfs", "-graph", path, "-k", "8", "-src", "0", "-dynamic"}); err != nil {
		t.Fatal(err)
	}
	// Edge-list file path too.
	epath := filepath.Join(t.TempDir(), "g.edges")
	ef, err := os.Create(epath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(ef, g); err != nil {
		t.Fatal(err)
	}
	ef.Close()
	if err := run([]string{"info", "-graph", epath}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgoSubcommandAllKernels(t *testing.T) {
	for _, name := range gpualgo.Names(false) {
		args := []string{"algo", "-name", name, "-preset", "Patents-like", "-scale", "7", "-k", "8", "-iters", "2"}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTraceSubcommand(t *testing.T) {
	if err := run([]string{"trace", "-preset", "Patents-like", "-scale", "7", "-k", "8", "-buckets", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySubcommand(t *testing.T) {
	if err := run([]string{"verify", "-preset", "Patents-like", "-scale", "7", "-k", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"verify", "-preset", "nope"}); err == nil {
		t.Fatal("bad preset accepted")
	}
}

// TestDynamicSubcommand streams mutation batches through all four repairs
// on a small preset, half deletes and insert-only: dynamic fails unless
// every batch's repaired result matches the CPU oracle on the compacted
// graph.
func TestDynamicSubcommand(t *testing.T) {
	for _, delfrac := range []string{"0.5", "0"} {
		args := []string{"dynamic", "-preset", "LiveJournal-like", "-scale", "7", "-k", "8",
			"-batches", "3", "-size", "6", "-delfrac", delfrac}
		if err := run(args); err != nil {
			t.Errorf("dynamic -delfrac %s: %v", delfrac, err)
		}
	}
}

func TestGraph500Subcommand(t *testing.T) {
	if err := run([]string{"graph500", "-scale", "8", "-nbfs", "3", "-k", "16"}); err != nil {
		t.Fatal(err)
	}
}

func TestInfoDefaultWorkload(t *testing.T) {
	if err := run([]string{"info", "-scale", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgoSSSPFromDIMACSFile(t *testing.T) {
	g, err := gengraph.UniformRandom(100, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	weights := gengraph.EdgeWeights(g, 9, 4)
	path := filepath.Join(t.TempDir(), "g.gr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteDIMACS(f, g, weights); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, name := range []string{"sssp", "deltastep"} {
		if err := run([]string{"algo", "-name", name, "-graph", path, "-k", "8"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
