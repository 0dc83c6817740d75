package vwarp

import (
	"maxwarp/internal/simt"
)

// OutlierQueue implements the paper's "deferring outliers" technique: during
// the main pass, tasks whose work exceeds a threshold are not processed
// inline (where they would stall their virtual warp); instead their ids are
// appended to this global queue with an atomic counter, and a follow-up pass
// processes them with a full warp per task.
//
// A queue takes effect through Schedule.Outliers. In a main pass, Row queues
// each group whose row is longer than Threshold, recording the id ForEach
// dealt it (not a worklist entry the body loaded into Task), and idles the
// group. The host then calls Rerun(true) and launches the same kernel again:
// its ForEach deals the queued ids, one physical warp each, and the body
// runs again from its first line, with Row deferring nothing. A body must
// therefore leave a queued task's state as it found it before its Row call.
type OutlierQueue struct {
	// Items holds deferred task ids.
	Items *simt.BufI32
	// Count is a single-cell buffer holding the number of deferral
	// attempts; appends beyond capacity stay inline.
	Count *simt.BufI32
	// Threshold is the longest row a task keeps in the main pass.
	Threshold int32
	// rerun is the number of queued tasks ForEach deals in a rerun pass,
	// 0 in a main pass.
	rerun int32
}

// NewOutlierQueue allocates a queue with room for capacity deferred tasks
// that defers rows longer than threshold.
func NewOutlierQueue(d *simt.Device, name string, capacity int, threshold int32) *OutlierQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &OutlierQueue{
		Items:     d.AllocI32(name+".items", capacity),
		Count:     d.AllocI32(name+".count", 1),
		Threshold: threshold,
	}
}

// Reset clears the queue (host side, between launches).
func (q *OutlierQueue) Reset() { q.Count.Data()[0] = 0 }

// Len returns the number of deferred tasks (host side, after a launch).
func (q *OutlierQueue) Len() int {
	return min(int(q.Count.Data()[0]), q.Items.Len())
}

// Rerun switches the launches that follow to the rerun pass of the Len()
// queued tasks (on) or back to main passes (off). Host side, between
// launches.
func (q *OutlierQueue) Rerun(on bool) {
	q.rerun = 0
	if on {
		q.rerun = int32(q.Len())
	}
}
