package main

import (
	"reflect"
	"testing"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/simt"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := parseFaultPlan("abort=3,bitflip=2,buffers=bfs.levels|graph.col,loss=500,seed=7,maxfaults=4")
	if err != nil {
		t.Fatal(err)
	}
	want := &simt.FaultPlan{
		Seed:                  7,
		AbortEvery:            3,
		BitFlipEvery:          2,
		Buffers:               []string{"bfs.levels", "graph.col"},
		DeviceLossAfterCycles: 500,
		MaxFaults:             4,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan = %+v, want %+v", plan, want)
	}
}

func TestParseFaultPlanRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                   // schedules nothing
		"seed=7",             // schedules nothing
		"abort",              // not key=value
		"abort=x",            // not a number
		"abort=-1",           // negative
		"frobnicate=3",       // unknown key
		"abort=3,oops=yes",   // one bad pair poisons the spec
		"bitflip=1,buffers=", // empty buffer name would silently disable flips
		"bitflip=1,buffers=a||b",
	} {
		if _, err := parseFaultPlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestBFSInjectFlagEndToEnd(t *testing.T) {
	if err := run([]string{"bfs", "-scale", "7", "-inject", "abort=3,seed=7"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bfs", "-scale", "7", "-inject", "loss=2000"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bfs", "-scale", "7", "-inject", "bogus"}); err == nil {
		t.Fatal("bad inject spec accepted")
	}
	if err := run([]string{"bfs", "-scale", "7", "-inject", "abort=3", "-retries", "0"}); err == nil {
		t.Fatal("-retries 0 accepted (would silently use the default budget)")
	}
}

func TestAlgoInjectFlagEndToEnd(t *testing.T) {
	for _, name := range gpualgo.Names(false) {
		if err := run([]string{"algo", "-name", name, "-scale", "7", "-inject", "abort=4,seed=3"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
