package resilient

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// The chaos suite: run table entries through Execute under seeded fault
// injection and assert that (a) transient faults never change the answer,
// (b) permanent faults degrade to the CPU oracle with Degraded set, and (c)
// no fault ever surfaces as a panic.

func testConfig() simt.Config {
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxWarpsPerSM = 8
	cfg.MaxBlocksPerSM = 4
	return cfg
}

func newTestDevice(t *testing.T) *simt.Device {
	t.Helper()
	d, err := simt.NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := gengraph.RMATSimple(7, 8, gengraph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fastPolicy removes real sleeps from the retry loop.
func fastPolicy() Policy {
	return Policy{MaxRetries: 3, Sleep: func(time.Duration) {}}
}

// bfs runs the BFS entry from vertex 0 under Execute.
func bfs(d *simt.Device, g *graph.CSR, k int, pol Policy) (gpualgo.Output, *Outcome, error) {
	return Execute(d, gpualgo.Lookup("bfs"), gpualgo.Input{G: g}, gpualgo.Options{K: k}, pol)
}

func TestBFSSurvivesInjectedAborts(t *testing.T) {
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 17, AbortEvery: 3})
	res, out, err := bfs(d, g, 8, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("transient aborts should not degrade: faults=%v", out.Faults)
	}
	if out.Retries == 0 {
		t.Fatal("fault plan injected nothing; the test is vacuous")
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("BFS under transient aborts differs from fault-free oracle")
	}
}

func TestBFSSurvivesBitFlipsInStateBuffers(t *testing.T) {
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{
		Seed:         5,
		BitFlipEvery: 2,
		Buffers:      []string{"bfs.levels", "bfs.changed"},
	})
	res, out, err := bfs(d, g, 8, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("bit-flips should be retried, not degraded: faults=%v", out.Faults)
	}
	if out.Retries == 0 {
		t.Fatal("no bit-flip was injected; the test is vacuous")
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("BFS under bit-flips differs from fault-free oracle")
	}
	for _, f := range out.Faults {
		if !simt.IsTransient(f.Err) {
			t.Fatalf("non-transient fault recovered from: %v", f.Err)
		}
	}
}

func TestBFSRestoresCorruptedGraphBuffers(t *testing.T) {
	// Flips restricted to the adjacency array itself: a corrupted column
	// index may send the kernel out of bounds mid-launch, which must still
	// be attributed to the (transient) injection, restored from checkpoint,
	// and retried to the right answer.
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{
		Seed:         23,
		BitFlipEvery: 2,
		Buffers:      []string{"graph.col"},
	})
	res, out, err := bfs(d, g, 8, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("graph corruption should be restored and retried: faults=%v", out.Faults)
	}
	if out.Retries == 0 {
		t.Fatal("no bit-flip was injected; the test is vacuous")
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("BFS after graph-buffer restoration differs from oracle")
	}
}

func TestBFSDegradesOnDeviceLoss(t *testing.T) {
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 1, DeviceLossAfterCycles: 500})
	res, out, err := bfs(d, g, 8, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("device loss must degrade to the CPU oracle")
	}
	if !errors.Is(out.FallbackCause, simt.ErrDeviceLost) {
		t.Fatalf("fallback cause = %v, want ErrDeviceLost", out.FallbackCause)
	}
	if res.Result != nil {
		t.Fatal("degraded result still claims GPU provenance")
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("degraded BFS differs from oracle")
	}
	if !d.Lost() {
		t.Fatal("device not marked lost")
	}
}

func TestBFSDegradesWhenRetryBudgetExhausted(t *testing.T) {
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 2, AbortEvery: 1}) // every launch dies
	pol := fastPolicy()
	pol.MaxRetries = 2
	res, out, err := bfs(d, g, 8, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("exhausted budget must degrade")
	}
	if out.Retries != 2 {
		t.Fatalf("retries = %d, want exactly MaxRetries=2", out.Retries)
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("degraded BFS differs from oracle")
	}
}

func TestBFSNoFallbackReturnsTypedError(t *testing.T) {
	g := testGraph(t)
	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 2, AbortEvery: 1})
	pol := fastPolicy()
	pol.MaxRetries = 1
	pol.NoFallback = true
	_, _, err := bfs(d, g, 8, pol)
	if err == nil {
		t.Fatal("NoFallback must surface the error")
	}
	var kf *simt.KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("error is not typed: %v", err)
	}
}

func TestSSSPSurvivesTransientFaults(t *testing.T) {
	g := testGraph(t)
	weights := gengraph.EdgeWeights(g, 16, 7)
	want := cpualgo.SSSPBellmanFord(g, weights, 0, 1)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{
		Seed:         31,
		AbortEvery:   4,
		BitFlipEvery: 3,
		Buffers:      []string{"sssp.dist", "graph.col"},
	})
	res, out, err := Execute(d, gpualgo.Lookup("sssp"), gpualgo.Input{G: g, Weights: weights}, gpualgo.Options{K: 8}, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("transient faults should not degrade: faults=%v", out.Faults)
	}
	if out.Retries == 0 {
		t.Fatal("no fault was injected; the test is vacuous")
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("SSSP under transient faults differs from oracle")
	}
}

func TestSSSPDegradesOnDeviceLoss(t *testing.T) {
	g := testGraph(t)
	weights := gengraph.EdgeWeights(g, 16, 7)
	want := cpualgo.SSSPBellmanFord(g, weights, 0, 1)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 4, DeviceLossAfterCycles: 800})
	res, out, err := Execute(d, gpualgo.Lookup("sssp"), gpualgo.Input{G: g, Weights: weights}, gpualgo.Options{K: 8}, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !errors.Is(out.FallbackCause, simt.ErrDeviceLost) {
		t.Fatalf("outcome = %+v, want device-loss degradation", *out)
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("degraded SSSP differs from oracle")
	}
}

func TestPageRankSurvivesTransientFaults(t *testing.T) {
	g := testGraph(t)
	a := gpualgo.Lookup("pagerank")
	in := gpualgo.Input{G: g, Iterations: 5}
	opts := gpualgo.Options{K: 8}

	// Fault-free device run is the reference: transient faults must not
	// perturb even the floating-point result (exact equality, since retries
	// replay identical launches from restored state).
	ref, err := a.Run(newTestDevice(t), in, opts)
	if err != nil {
		t.Fatal(err)
	}

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{
		Seed:         13,
		AbortEvery:   3,
		BitFlipEvery: 4,
		Buffers:      []string{"pr.rank", "pr.next", "pr.contrib"},
	})
	// Two launches per sweep doubles the fault density, so give the retry
	// loop more headroom than the BFS tests need.
	pol := fastPolicy()
	pol.MaxRetries = 8
	res, out, err := Execute(d, a, in, opts, pol)
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("transient faults should not degrade: faults=%v", out.Faults)
	}
	if out.Retries == 0 {
		t.Fatal("no fault was injected; the test is vacuous")
	}
	if !reflect.DeepEqual(res.Value, ref.Value) {
		t.Fatal("PageRank under transient faults differs from fault-free run")
	}
}

func TestPageRankDegradesOnDeviceLoss(t *testing.T) {
	g := testGraph(t)
	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 6, DeviceLossAfterCycles: 1000})
	res, out, err := Execute(d, gpualgo.Lookup("pagerank"), gpualgo.Input{G: g, Iterations: 5}, gpualgo.Options{K: 8}, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !errors.Is(out.FallbackCause, simt.ErrDeviceLost) {
		t.Fatalf("outcome = %+v, want device-loss degradation", *out)
	}
	var sum float64
	for _, r := range res.Value.([]float32) {
		sum += float64(r)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("oracle ranks do not sum to ~1: %f", sum)
	}
}

// flakyStepper is a run of one round whose first fails attempts fail with
// err; it counts every Step call.
type flakyStepper struct {
	fails int
	err   error
	steps int
}

func (s *flakyStepper) Step() (bool, error) {
	s.steps++
	if s.steps <= s.fails {
		return false, s.err
	}
	return true, nil
}

func (s *flakyStepper) State() gpualgo.RunState { return gpualgo.RunState{} }

func (s *flakyStepper) Iterations() int { return 0 }

// failing returns a stepper whose every attempt fails with err.
func failing(err error) *flakyStepper { return &flakyStepper{fails: math.MaxInt, err: err} }

func TestRunRetriesTransientThenSucceeds(t *testing.T) {
	s := &flakyStepper{fails: 2, err: &simt.KernelFault{Kind: simt.FaultAbort, Index: -1, Block: -1, Warp: -1, Lane: -1}}
	out, err := Drive(fastPolicy(), s)
	if err != nil {
		t.Fatal(err)
	}
	if s.steps != 3 || out.Retries != 2 || len(out.Faults) != 2 {
		t.Fatalf("steps=%d outcome=%+v", s.steps, out)
	}
}

func TestRunPermanentFaultSkipsRetries(t *testing.T) {
	boom := &simt.KernelFault{Kind: simt.FaultOOB, Index: -1, Block: -1, Warp: -1, Lane: -1}
	s := failing(boom)
	out, err := Drive(fastPolicy(), s)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the permanent fault", err)
	}
	if s.steps != 1 || out.Retries != 0 {
		t.Fatalf("permanent fault retried: steps=%d outcome=%+v", s.steps, out)
	}
}

func TestRunBackoffGrowsExponentially(t *testing.T) {
	var slept []time.Duration
	pol := Policy{
		MaxRetries:  4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		NoJitter:    true,
	}
	transient := &simt.KernelFault{Kind: simt.FaultBitFlip, Index: -1, Block: -1, Warp: -1, Lane: -1}
	if _, err := Drive(pol, failing(transient)); !errors.Is(err, transient) {
		t.Fatalf("err = %v, want the exhausted transient fault", err)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoffs = %v, want %v", slept, want)
	}
}

func TestCheckpointRestoreUndoesCorruption(t *testing.T) {
	d := newTestDevice(t)
	bi := d.UploadI32("ints", []int32{1, 2, 3})
	bf := d.UploadF32("floats", []float32{0.5, 1.5})
	cp := NewCheckpoint(gpualgo.RunState{I32: []*simt.BufI32{bi}, F32: []*simt.BufF32{bf}})
	bi.Data()[1] = -7
	bf.Data()[0] = 99
	cp.Restore()
	if bi.Data()[1] != 2 || bf.Data()[0] != 0.5 {
		t.Fatalf("restore failed: %v %v", bi.Data(), bf.Data())
	}
	bi.Data()[0] = 10
	cp.Save()
	bi.Data()[0] = 0
	cp.Restore()
	if bi.Data()[0] != 10 {
		t.Fatal("save did not refresh the snapshot")
	}
}

func TestChaosSweepNeverPanicsAlwaysCorrect(t *testing.T) {
	// A seeded sweep across fault mixes: whatever is injected, the answer
	// must be the oracle answer (directly, or via degradation) and nothing
	// may panic across the API boundary.
	g := testGraph(t)
	want := cpualgo.BFSSequential(g, 0)
	plans := []simt.FaultPlan{
		{Seed: 100, AbortEvery: 2},
		{Seed: 101, BitFlipEvery: 1, Buffers: []string{"bfs.levels"}},
		{Seed: 102, AbortEvery: 1, MaxFaults: 3},
		{Seed: 103, DeviceLossAfterCycles: 2000},
		{Seed: 104, AbortEvery: 2, BitFlipEvery: 3, Buffers: []string{"graph.col", "bfs.levels"}},
	}
	for i, plan := range plans {
		p := plan
		d := newTestDevice(t)
		d.SetFaultPlan(&p)
		res, out, err := bfs(d, g, 4, fastPolicy())
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Value, want) {
			t.Fatalf("plan %d: wrong answer (degraded=%v)", i, out.Degraded)
		}
	}
}
