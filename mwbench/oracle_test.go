package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxwarp/internal/serve"
)

// startTestServer runs the serve layer in-process on small graphs and
// returns its URL and the checker's view of epoch 0.
func startTestServer(t *testing.T) (string, map[string]*epochGraph) {
	t.Helper()
	var specs []serve.GraphSpec
	for _, arg := range []string{"wiki=WikiTalk-like:7", "road=RoadNet-like:6"} {
		spec, err := serve.ParseGraphSpec(arg)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	srv, err := serve.New(serve.Config{Graphs: specs, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	reg, err := serve.LoadGraphs(specs)
	if err != nil {
		t.Fatal(err)
	}
	egs := make(map[string]*epochGraph)
	for _, name := range reg.Names() {
		ng, _ := reg.Get(name)
		egs[name] = newEpochGraph(ng.G, ng.Weights)
	}
	return hs.URL, egs
}

func runOps(t *testing.T, url string, ops []op) *servedRun {
	t.Helper()
	loop := newOpenLoop(url, 2, 30*time.Second, nil)
	defer loop.close()
	chainMutations(ops)
	return &servedRun{ops: ops, outs: loop.run(context.Background(), ops), end: len(ops)}
}

// TestCheckerCountsCorruptedAnswers checks that served answers pass the
// oracle, and that corrupting any summary field makes the op fail.
func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	url, egs := startTestServer(t)
	sr := runOps(t, url, warmupOps(1))
	var clean tally
	sr.check(newChecker(egs), &clean)
	if clean.attempted != len(serveItems) || clean.failed != 0 {
		t.Fatalf("clean answers: attempted=%d failed=%d %v", clean.attempted, clean.failed, clean.errs)
	}

	for i := range sr.outs {
		r := &sr.outs[i].query.Result
		switch serveItems[sr.ops[i].item].algo {
		case "bfs":
			r.Reached++
		case "pagerank":
			r.RankSum += 0.01
		case "cc":
			r.Components++
		case "sssp":
			r.MaxFiniteDist++
		}
	}
	var corrupt tally
	sr.check(newChecker(egs), &corrupt)
	if corrupt.failed != len(serveItems) {
		t.Fatalf("corrupted answers: %d of %d counted as failed", corrupt.failed, len(serveItems))
	}
	for i := range sr.ops {
		if !sr.failed[i] {
			t.Errorf("corrupted %s answer not marked failed", serveItems[sr.ops[i].item].name)
		}
	}
}

// TestCheckerFollowsMutations interleaves balanced mutation batches with
// queries: the mirror must agree with the server's epochs, and a checker
// that misses a batch must reject answers at epochs it does not know.
func TestCheckerFollowsMutations(t *testing.T) {
	url, egs := startTestServer(t)
	stream := newMutationStream(egs["road"].g, egs["road"].w, 7)
	sssp, cc := 3, 2 // serveItems indexes
	ops := []op{
		{item: -1, graph: "road", batch: stream.next()},
		{item: sssp, noCache: true},
		{item: cc, noCache: true},
		{item: -1, graph: "road", batch: stream.next()},
		{item: sssp, noCache: true},
		{item: -1, graph: "road", batch: stream.closing()},
		{item: sssp},
	}
	for i := range ops {
		ops[i].due = time.Duration(i) * 50 * time.Millisecond
	}
	sr := runOps(t, url, ops)
	var tl tally
	sr.check(newChecker(egs), &tl)
	if tl.failed != 0 {
		t.Fatalf("mirrored run: %d failed: %v", tl.failed, tl.errs)
	}
	if got := sr.outs[len(ops)-1].query.Epoch; got != 3 {
		t.Fatalf("last query at epoch %d, want 3", got)
	}

	stale := newChecker(egs)
	if err := stale.checkQuery(serveItems[sssp], sr.outs[4].query); err == nil || !strings.Contains(err.Error(), "no epoch") {
		t.Fatalf("checker without the batches accepted an epoch-%d answer: %v", sr.outs[4].query.Epoch, err)
	}
}
