package resilient

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/simt"
)

// The jitter suite: backoff sleeps must stay within the exponential
// envelope, be reproducible under an explicit seed, and — the point of the
// feature — desynchronize across retry loops so a pool of requests does not
// retry in lockstep against a recovering device.

func collectSleeps(t *testing.T, pol Policy) []time.Duration {
	t.Helper()
	var slept []time.Duration
	pol.Sleep = func(d time.Duration) { slept = append(slept, d) }
	transient := &simt.KernelFault{Kind: simt.FaultBitFlip, Index: -1, Block: -1, Warp: -1, Lane: -1}
	if _, err := Drive(pol, failing(transient)); !errors.Is(err, transient) {
		t.Fatalf("err = %v, want the exhausted transient fault", err)
	}
	return slept
}

func TestJitterStaysWithinBackoffEnvelope(t *testing.T) {
	pol := Policy{
		MaxRetries:  6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		JitterSeed:  7,
	}
	slept := collectSleeps(t, pol)
	if len(slept) != 6 {
		t.Fatalf("got %d sleeps, want 6", len(slept))
	}
	ref := pol.withDefaults()
	for i, d := range slept {
		cap := ref.backoff(i + 1)
		if d < 0 || d > cap {
			t.Fatalf("sleep %d = %v outside [0, %v]", i, d, cap)
		}
	}
}

func TestJitterIsSeededAndReproducible(t *testing.T) {
	pol := Policy{MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}

	pol.JitterSeed = 11
	a := collectSleeps(t, pol)
	b := collectSleeps(t, pol)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}

	pol.JitterSeed = 12
	c := collectSleeps(t, pol)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules: %v", a)
	}
}

func TestDefaultJitterDesynchronizesRetryLoops(t *testing.T) {
	// Two identical zero-seed policies model two concurrent requests
	// retrying against the same recovering device: their sleep schedules
	// must differ so the herd spreads out. With MaxBackoff large the odds
	// of a 5-draw collision are negligible.
	pol := Policy{MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 500 * time.Millisecond}
	a := collectSleeps(t, pol)
	b := collectSleeps(t, pol)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("two zero-seed retry loops slept in lockstep: %v", a)
	}
}

// CC joins the chaos suite through the table: Execute must survive
// transient aborts unchanged and degrade to the union-find oracle on device
// loss.

func TestCCSurvivesInjectedAborts(t *testing.T) {
	g := testGraph(t)
	sym, err := g.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	want := cpualgo.ConnectedComponents(sym)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 23, AbortEvery: 2})
	res, out, err := Execute(d, gpualgo.Lookup("cc"), gpualgo.Input{G: sym}, gpualgo.Options{K: 8}, fastPolicy())
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
		t.Fatal("CC under transient aborts differs from fault-free oracle")
	}
}

func TestCCDegradesOnDeviceLoss(t *testing.T) {
	g := testGraph(t)
	sym, err := g.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	want := cpualgo.ConnectedComponents(sym)

	d := newTestDevice(t)
	d.SetFaultPlan(&simt.FaultPlan{Seed: 29, DeviceLossAfterCycles: 1500})
	a := gpualgo.Lookup("cc")
	res, out, err := Execute(d, a, gpualgo.Input{G: sym}, gpualgo.Options{K: 8}, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || res.Result != nil {
		t.Fatalf("device loss should degrade to the oracle: %+v", out)
	}
	if !reflect.DeepEqual(res.Value, want) {
		t.Fatal("degraded CC differs from the union-find oracle")
	}
	if n := a.Summarize(res.Value).Components; n <= 0 || n > g.NumVertices() {
		t.Fatalf("implausible component count %d", n)
	}
}
