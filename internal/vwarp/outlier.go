package vwarp

import (
	"fmt"

	"maxwarp/internal/simt"
)

// OutlierQueue implements the paper's "deferring outliers" technique: during
// the main pass, tasks whose work exceeds a threshold are not processed
// inline (where they would stall their virtual warp); instead their ids are
// appended to this global queue with an atomic counter, and a follow-up pass
// processes them with a full warp (or more) per task.
type OutlierQueue struct {
	// Items holds deferred task ids.
	Items *simt.BufI32
	// Count is a single-cell buffer holding the number of deferred items.
	Count *simt.BufI32
}

// NewOutlierQueue allocates a queue with room for capacity deferred tasks.
func NewOutlierQueue(d *simt.Device, name string, capacity int) *OutlierQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &OutlierQueue{
		Items: d.AllocI32(name+".items", capacity),
		Count: d.AllocI32(name+".count", 1),
	}
}

// Reset clears the queue (host side, between launches).
func (q *OutlierQueue) Reset() { q.Count.Data()[0] = 0 }

// Len returns the number of deferred tasks (host side, after a launch).
func (q *OutlierQueue) Len() int {
	n := int(q.Count.Data()[0])
	if n > q.Items.Len() {
		n = q.Items.Len() // the queue saturated; excess appends were dropped
	}
	return n
}

// Defer appends each active group's task for which pred holds. It returns
// nothing device-side; the caller's SISD code should simply skip deferred
// tasks. Appends beyond capacity are dropped (the caller sizes the queue for
// the worst case, typically numTasks).
func (t *Tasks) Defer(q *OutlierQueue, pred func(g int) bool) {
	t.leaderLanes()
	t.leaderUser = pred
	t.deferQ = q
	t.W.If(t.leaderFn, t.deferBodyFn, nil)
}

// ForEachDeferred processes the queue's tasks with one virtual warp of width
// k per task (typically k = the full warp width, maximizing parallelism on
// the heavy tasks). numDeferred is read host-side via Len() after the main
// pass. The task ids are fetched through the queue indirection, then body
// runs exactly as under ForEach's stride schedule.
func ForEachDeferred(w *simt.WarpCtx, k int, q *OutlierQueue, numDeferred int32, body func(t *Tasks)) {
	if numDeferred < 0 {
		panic(fmt.Sprintf("vwarp: negative deferred count %d", numDeferred))
	}
	ForEach(w, Schedule{K: k}, numDeferred, func(t *Tasks) {
		// t.Task currently holds queue slots; replace with the deferred ids.
		t.LoadI32Grouped(q.Items, t.Task, t.Task)
		body(t)
	})
}
