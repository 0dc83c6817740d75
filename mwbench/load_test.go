package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"maxwarp/internal/serve"
)

// TestOpenLoopCountsEveryDueRequest drives the generator against a server
// that is slower than the offered rate, fails some requests and never
// answers one: every scheduled request must come back with an outcome,
// failures must be counted, the wait for a free connection must show in the
// latency, and no more than conns requests may be in flight.
func TestOpenLoopCountsEveryDueRequest(t *testing.T) {
	const (
		n       = 20
		conns   = 2
		timeout = 500 * time.Millisecond
		service = 100 * time.Millisecond
	)
	var arrived, inFlight, maxInFlight atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for m := maxInFlight.Load(); cur > m && !maxInFlight.CompareAndSwap(m, cur); m = maxInFlight.Load() {
		}
		i := arrived.Add(1)
		switch {
		case i%5 == 0:
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		case i == 7:
			// Never answers within the client's timeout. The client gives
			// up on it, so it no longer counts against the connection cap.
			inFlight.Add(-1)
			defer inFlight.Add(1)
			select {
			case <-r.Context().Done():
			case <-time.After(10 * timeout):
			}
			return
		}
		time.Sleep(service)
		_ = json.NewEncoder(w).Encode(serve.QueryResponse{Algo: "bfs", Graph: "wiki"})
	}))
	defer srv.Close()

	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * 25 * time.Millisecond}
	}
	loop := newOpenLoop(srv.URL, conns, timeout, nil)
	defer loop.close()
	outs := loop.run(context.Background(), ops)

	if len(outs) != n {
		t.Fatalf("%d outcomes for %d scheduled requests", len(outs), n)
	}
	ok, failed := 0, 0
	var lastOK time.Duration
	for i, o := range outs {
		if o.done < o.sent || o.sent < o.due {
			t.Errorf("op %d: due %v sent %v done %v out of order", i, o.due, o.sent, o.done)
		}
		if o.ok() {
			ok++
			if o.latency() < service {
				t.Errorf("op %d: latency %v below the server's service time", i, o.latency())
			}
			lastOK = o.latency()
		} else {
			failed++
		}
	}
	if failed != 5 || ok != n-5 {
		t.Errorf("ok=%d failed=%d, want %d and 5 (four 500s and one timeout)", ok, failed, n-5)
	}
	if got := maxInFlight.Load(); got > conns {
		t.Errorf("%d requests in flight, want at most %d", got, conns)
	}
	// Offered at 40/s against two 10/s connections, the last requests wait
	// for a free connection, and that wait is part of their latency.
	if lastOK < 3*service {
		t.Errorf("last answered request's latency %v does not include its wait for a connection", lastOK)
	}
}
