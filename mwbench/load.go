package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"maxwarp/internal/serve"
)

// outcome is what happened to one scheduled op. Every op of a run gets
// exactly one outcome, so nothing that came due can drop out of the counts.
type outcome struct {
	// due, sent and done are offsets from the start of the run.
	due, sent, done time.Duration
	// status is the HTTP status, or 0 when no response arrived.
	status int
	err    error
	query  *serve.QueryResponse
	mutate *serve.MutateResponse
	// span is the op's http.request span (0 when tracing is off).
	span int
}

// ok reports whether the server answered 200 with a decodable body.
func (o *outcome) ok() bool { return o.status == http.StatusOK && o.err == nil }

// latency is the time from the op's intended send time to its response, so
// a stall also charges the wait it imposes on the ops queued behind it.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// openLoop sends scheduled ops to a serve daemon on a fixed timetable.
type openLoop struct {
	base   string
	conns  int
	client *http.Client
	spans  *spanRecorder // nil when tracing is off
}

// newOpenLoop returns a generator holding at most conns connections to base;
// a request that gets no response within timeout counts as failed.
func newOpenLoop(base string, conns int, timeout time.Duration, spans *spanRecorder) *openLoop {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &openLoop{base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: timeout}, spans: spans}
}

func (l *openLoop) close() { l.client.CloseIdleConnections() }

// run sends each op at its due offset from now, never waiting for earlier
// ops to finish: conns senders take ops in due order, and an op due while
// every sender is busy waits for the first free one, with that wait counted
// in its latency. run returns after every op has an outcome, so requests in
// flight at the end are drained, not dropped.
func (l *openLoop) run(ctx context.Context, ops []op) []outcome {
	start := time.Now()
	out := make([]outcome, len(ops))
	finished := make([]chan struct{}, len(ops))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	// The buffer holds the whole schedule, so the pacer never blocks on a
	// busy sender.
	jobs := make(chan int, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if a := ops[i].after; a > 0 {
					<-finished[a-1]
				}
				out[i] = l.send(ctx, start, &ops[i])
				close(finished[i])
			}
		}()
	}
	for i := range ops {
		if wait := time.Until(start.Add(ops[i].due)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func (l *openLoop) send(ctx context.Context, start time.Time, o *op) outcome {
	res := outcome{due: o.due}
	path := "/v1/query"
	var body any
	if o.isMutation() {
		path = "/v1/graphs/" + o.graph + "/mutate"
		body = o.mutateBody()
	} else {
		body = o.queryBody()
	}
	data, err := json.Marshal(body)
	if err != nil {
		res.err = err
		res.sent, res.done = time.Since(start), time.Since(start)
		return res
	}
	t0 := time.Now()
	res.sent = t0.Sub(start)
	res.status, res.err = l.post(ctx, path, data, o, &res)
	res.done = time.Since(start)
	res.span = l.spans.add("http.request", serveItemName(o), 0, t0, time.Since(t0))
	return res
}

func (l *openLoop) post(ctx context.Context, path string, data []byte, o *op, res *outcome) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if o.isMutation() {
		res.mutate = new(serve.MutateResponse)
		err = json.Unmarshal(raw, res.mutate)
	} else {
		res.query = new(serve.QueryResponse)
		err = json.Unmarshal(raw, res.query)
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}

func serveItemName(o *op) string {
	if o.isMutation() {
		return "mutate-" + o.graph
	}
	return serveItems[o.item].name
}
