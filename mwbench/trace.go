package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share a tree through Parent.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Item    string  `json:"item,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// spanRecorder keeps the traced run's spans in memory until write. A nil
// recorder records nothing, which is how tracing is switched off.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// add records a span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) add(name, item string, parent int, start time.Time, dur time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Item: item,
		StartUs: float64(start.Sub(r.t0)) / float64(time.Microsecond),
		DurUs:   float64(dur) / float64(time.Microsecond),
	})
	return id
}

// end sets the duration of a span added with a zero duration, for parents
// whose ID their children need before the parent's end is known.
func (r *spanRecorder) end(id int, dur time.Duration) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].DurUs = float64(dur) / float64(time.Microsecond)
}

// addServerSpans records the server's queue and exec phases of one request
// as children of its http.request span. The response reports only their
// durations, so they are placed back to back, ending where the request
// span ends.
func (r *spanRecorder) addServerSpans(parent int, item string, queueMs, execMs float64) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	p := r.spans[parent-1]
	r.mu.Unlock()
	end := r.t0.Add(time.Duration((p.StartUs + p.DurUs) * float64(time.Microsecond)))
	exec := time.Duration(execMs * float64(time.Millisecond))
	queue := time.Duration(queueMs * float64(time.Millisecond))
	r.add("server.exec", item, parent, end.Add(-exec), exec)
	r.add("server.queue", item, parent, end.Add(-exec-queue), queue)
}

// write stores every span as JSON at path.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
