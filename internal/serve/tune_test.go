package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/simt"
)

// sweepLog captures a server's log and counts its width sweeps.
type sweepLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *sweepLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// mustGraph returns the server's current snapshot of the named graph.
func mustGraph(t *testing.T, s *Server, name string) *NamedGraph {
	t.Helper()
	ng, ok := s.graphs.Get(name)
	if !ok {
		t.Fatalf("no graph %q", name)
	}
	return ng
}

// sweeps counts the sweeps logged for algo on graph.
func (l *sweepLog) sweeps(algo, graph string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, fmt.Sprintf("tuned %s on %q", algo, graph)) {
			n++
		}
	}
	return n
}

// TestTunedWidthOnServeGraphs checks the served width on the serve
// benchmark's graphs and device shape: a cc query that names no k runs on
// the RoadNet-like snapshot at K=4, in fewer cycles than at K=32 and with
// the same labels, and a bfs on the WikiTalk-like snapshot keeps K=32. The
// tuned width and both cycle counts equal AutoTune's on fresh devices, so
// the width depends on the snapshot, the algorithm and the device config,
// not on what the worker's device ran before.
func TestTunedWidthOnServeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a scale-9 graph")
	}
	cfg := testConfig()
	cfg.Graphs = []GraphSpec{
		{Name: "wiki", Preset: "WikiTalk-like", Scale: 9},
		{Name: "road", Preset: "RoadNet-like", Scale: 9},
	}
	cfg.DeviceConfig = nil // the daemon's own device shape
	cfg.Devices = 1
	// The first query waits for the sweep, which takes seconds under -race;
	// a query still waiting at its deadline is shed, as it should be.
	cfg.DefaultDeadline, cfg.MaxDeadline = time.Minute, time.Minute
	s, ts := startTestServer(t, cfg)

	_, tuned := postQuery(t, ts.URL, QueryRequest{Algo: "cc", Graph: "road", Full: true})
	_, k32 := postQuery(t, ts.URL, QueryRequest{Algo: "cc", Graph: "road", K: 32, Full: true, NoCache: true})
	if tuned == nil || k32 == nil || tuned.Engine != "gpu" || k32.Engine != "gpu" {
		t.Fatalf("want two gpu answers, got %+v and %+v", tuned, k32)
	}
	if tuned.Result.K != 4 || k32.Result.K != 32 {
		t.Fatalf("cc on road ran at K=%d untuned and K=%d at k=32; want 4 and 32", tuned.Result.K, k32.Result.K)
	}
	if tuned.Result.SimCycles >= k32.Result.SimCycles {
		t.Errorf("tuned cc took %d cycles, K=32 %d", tuned.Result.SimCycles, k32.Result.SimCycles)
	}
	if !reflect.DeepEqual(tuned.Result.Labels, k32.Result.Labels) {
		t.Error("tuned cc labels differ from K=32's")
	}
	_, cached := postQuery(t, ts.URL, QueryRequest{Algo: "cc", Graph: "road", Full: true})
	if cached == nil || !cached.Cached || cached.Result.K != 4 {
		t.Errorf("cached answer %+v, want a cache hit that keeps K=4", cached)
	}

	ng, _ := s.graphs.Get("road")
	a := gpualgo.Lookup("cc")
	in, err := ng.input(a, ng.DefaultSource(), defaultIterations, defaultDamping)
	if err != nil {
		t.Fatal(err)
	}
	dev := simt.DefaultConfig()
	dev.ParallelSMs = 1
	res, err := gpualgo.AutoTune(dev, a, in, gpualgo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestK != tuned.Result.K || res.Cycles[4] != tuned.Result.SimCycles || res.Cycles[32] != k32.Result.SimCycles {
		t.Errorf("AutoTune on fresh devices: K=%d, cycles %v; served K=%d in %d cycles and K=32 in %d",
			res.BestK, res.Cycles, tuned.Result.K, tuned.Result.SimCycles, k32.Result.SimCycles)
	}

	_, bfs := postQuery(t, ts.URL, QueryRequest{Algo: "bfs", Graph: "wiki", NoCache: true})
	if bfs == nil || bfs.Result.K != 32 {
		t.Fatalf("bfs on wiki: %+v, want K=32", bfs)
	}
}

// TestConcurrentFirstQueriesSweepOnce checks the single flight: first
// queries of one (snapshot, algorithm) that arrive together on two devices
// run one sweep and get one width.
func TestConcurrentFirstQueriesSweepOnce(t *testing.T) {
	var log sweepLog
	cfg := testConfig()
	cfg.Logf = log.logf
	_, ts := startTestServer(t, cfg)

	const clients = 4
	ks := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, qr := postQuery(t, ts.URL, QueryRequest{Algo: "sssp", Graph: "wiki", NoCache: true}); qr != nil {
				ks[c] = qr.Result.K
			}
		}(c)
	}
	wg.Wait()
	if n := log.sweeps("sssp", "wiki"); n != 1 {
		t.Fatalf("%d sweeps of sssp on wiki, want 1", n)
	}
	for c, k := range ks {
		if k != ks[0] || k == 0 {
			t.Fatalf("client %d ran at K=%d, client 0 at K=%d", c, k, ks[0])
		}
	}
}

// TestMutatedSnapshotInheritsWidths pins what /mutate and /reload do to
// tuned widths: a mutated snapshot keeps the widths its parent finished
// tuning, so its queries run at them with no sweep, while a reloaded
// snapshot is a fresh graph and sweeps again.
func TestMutatedSnapshotInheritsWidths(t *testing.T) {
	var log sweepLog
	cfg := testConfig()
	cfg.Logf = log.logf
	s, ts := startTestServer(t, cfg)

	q := QueryRequest{Algo: "bfs", Graph: "wiki", NoCache: true}
	_, first := postQuery(t, ts.URL, q)
	if first == nil || first.Epoch != 0 || first.Result.K == 0 {
		t.Fatalf("query on epoch 0: %+v", first)
	}
	ng, _ := s.graphs.Get("wiki")
	if resp, _ := postMutate(t, ts.URL, "wiki", freshMutations(t, ng.G, 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if _, qr := postQuery(t, ts.URL, q); qr == nil || qr.Epoch != 1 || qr.Result.K != first.Result.K {
			t.Fatalf("query %d on epoch 1: %+v, want K=%d", i, qr, first.Result.K)
		}
	}
	if n := log.sweeps("bfs", "wiki"); n != 1 {
		t.Fatalf("%d sweeps after the mutation, want only the parent's", n)
	}

	resp, err := http.Post(ts.URL+"/v1/graphs/wiki/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, qr := postQuery(t, ts.URL, q); qr == nil || qr.Epoch != 2 || qr.Result.K == 0 {
		t.Fatalf("query on the reloaded epoch 2: %+v", qr)
	}
	if n := log.sweeps("bfs", "wiki"); n != 2 {
		t.Fatalf("%d sweeps after the reload, want 2: one per reload", n)
	}
}

// TestSweepStopsLosingWidths checks the sweep's bound on a graph whose
// narrow widths are far slower than K=32: PageRank on the serve
// benchmark's WikiTalk-like graph, where K=1 takes 22 times K=32's cycles.
// Every candidate after the first stops once it passes the best so far, so
// the whole sweep spends less than K=1's run alone, and its width is still
// AutoTune's, which runs every candidate to the end.
func TestSweepStopsLosingWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a scale-9 graph")
	}
	var log sweepLog
	cfg := testConfig()
	cfg.Logf = log.logf
	cfg.Graphs = []GraphSpec{{Name: "wiki", Preset: "WikiTalk-like", Scale: 9}}
	cfg.DeviceConfig = nil // the daemon's own device shape
	cfg.Devices = 1
	s, err := New(cfg) // not started: the test drives the worker's device
	if err != nil {
		t.Fatal(err)
	}
	w, ng, a := s.workers[0], mustGraph(t, s, "wiki"), gpualgo.Lookup("pagerank")

	before := w.dev.Totals().Cycles
	k, err := w.tune(ng, a)
	if err != nil {
		t.Fatal(err)
	}
	spent := w.dev.Totals().Cycles - before

	in, err := ng.input(a, ng.DefaultSource(), defaultIterations, defaultDamping)
	if err != nil {
		t.Fatal(err)
	}
	full, err := gpualgo.AutoTune(*s.cfg.DeviceConfig, a, in, gpualgo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k != full.BestK {
		t.Fatalf("sweep picked K=%d, AutoTune K=%d (cycles %v)", k, full.BestK, full.Cycles)
	}
	ks := len(full.Cycles)
	if limit := int64(2*ks-1) * full.Cycles[32]; spent > limit || spent >= full.Cycles[1] {
		t.Fatalf("sweep spent %d cycles, want at most %d and below K=1's full run, %d (AutoTune cycles %v)",
			spent, limit, full.Cycles[1], full.Cycles)
	}
	if !strings.Contains(strings.Join(log.lines, "\n"), " K=1:>") {
		t.Errorf("log %q does not show K=1 stopped", log.lines)
	}

	// Once the server stops, a sweep cancels before its first launch.
	close(s.stop)
	before = w.dev.Totals().Cycles
	if _, err := w.tune(ng, a); !errors.Is(err, simt.ErrLaunchCancelled) || w.dev.Totals().Cycles != before {
		t.Fatalf("sweep on a stopped server: %v after %d cycles", err, w.dev.Totals().Cycles-before)
	}
}

// TestSweepPastBudgetKeepsWarpWidth checks the first candidate's limit:
// when even the warp width passes the cycles of the longest deadline on
// the service clock, no width finishes, and the sweep keeps the warp width
// instead of failing, so later queries do not sweep again.
func TestSweepPastBudgetKeepsWarpWidth(t *testing.T) {
	var log sweepLog
	cfg := testConfig()
	cfg.Logf = log.logf
	cfg.Devices = 1
	cfg.CyclesPerSecond = 1000
	cfg.DefaultDeadline, cfg.MaxDeadline = time.Second, time.Second
	s, err := New(cfg) // not started: the test drives the worker's device
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.workers[0].tune(mustGraph(t, s, "wiki"), gpualgo.Lookup("cc"))
	if err != nil || k != 32 {
		t.Fatalf("sweep: K=%d, %v; want K=32", k, err)
	}
	if len(log.lines) != 1 {
		t.Fatalf("log %q, want one sweep", log.lines)
	}
	for k := 1; k <= 32; k *= 2 {
		if !strings.Contains(log.lines[0], fmt.Sprintf(" K=%d:>", k)) {
			t.Errorf("log %q: K=%d did not stop at its limit", log.lines[0], k)
		}
	}
}

// TestClientGetsItsDeadline checks that a query is answered by its
// deadline even when no worker replies in time. Here no worker runs at
// all; in service, a width sweep can outlast the deadline of the query
// that triggered it.
func TestClientGetsItsDeadline(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.started.Store(true) // admit queries, but start no worker
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postQuery(t, ts.URL, QueryRequest{Algo: "bfs", Graph: "wiki", DeadlineMillis: 50})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("X-Maxwarp-Reason") != ReasonDeadline {
		t.Fatalf("status %d reason %q, want 429 %q", resp.StatusCode, resp.Header.Get("X-Maxwarp-Reason"), ReasonDeadline)
	}
}

// TestFailedSweepIsNotKept checks that a sweep that fails under injected
// faults is its request's error, degraded to the oracle like any device
// failure, and that the next query sweeps again and runs on the device.
func TestFailedSweepIsNotKept(t *testing.T) {
	var log sweepLog
	cfg := testConfig()
	cfg.Logf = log.logf
	cfg.Devices = 1
	// Four aborts in a row exhaust the default three retries of the sweep's
	// first launch; then the plan's fault budget is spent.
	cfg.FaultPlans = map[int]*simt.FaultPlan{0: {Seed: 5, AbortEvery: 1, MaxFaults: 4}}
	_, ts := startTestServer(t, cfg)

	q := QueryRequest{Algo: "cc", Graph: "wiki", NoCache: true}
	_, first := postQuery(t, ts.URL, q)
	if first == nil || !first.Degraded || first.Engine != "oracle" || first.Result.K != 0 {
		t.Fatalf("first query %+v, want an oracle answer with no width", first)
	}
	if n := log.sweeps("cc", "wiki"); n != 0 {
		t.Fatalf("%d sweeps logged for a failed sweep", n)
	}
	_, second := postQuery(t, ts.URL, q)
	if second == nil || second.Degraded || second.Engine != "gpu" || second.Result.K == 0 {
		t.Fatalf("second query %+v, want a gpu answer at a tuned width", second)
	}
	if n := log.sweeps("cc", "wiki"); n != 1 {
		t.Fatalf("%d sweeps after the retry, want 1", n)
	}
}
