package gpualgo

import (
	"fmt"

	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// RunState lists the device buffers that make up a run's replayable state:
// everything a kernel step reads or writes, including the uploaded graph
// (fault injection may flip bits in any registered buffer). A supervisor can
// snapshot these between steps and restore them to retry a failed step.
type RunState struct {
	I32 []*simt.BufI32
	F32 []*simt.BufF32
}

// Stepper is a resumable device run — every table entry's *Run: repeated
// Step calls until done, with host-side progress advancing only on success
// so a supervisor can restore State and retry a failed step.
type Stepper interface {
	Step() (done bool, err error)
	State() RunState
	Iterations() int
}

// Run is the host loop every kernel shares, written once: launch, read a
// device flag or queue length on the host, relaunch until fixpoint. A
// constructor (NewBFSRun, ...) allocates the run's buffers through it and
// supplies one round — a BFS level, a Bellman-Ford round, a PageRank
// iteration, an SCC region, a BC source, a single launch — and each Step
// runs one round. A round moves host-side progress only after its last
// launch returns, and Step commits the round's stats, its launch and
// deferral counts and one iteration only when every launch in it
// succeeded, so a supervisor can restore State after a failed step and
// call Step again to retry the same round.
type Run[R any] struct {
	// Launch supervises every kernel launch of the run (deadline, progress
	// callback). Zero value means unsupervised.
	Launch simt.LaunchOpts

	d     *simt.Device
	opts  Options
	res   *Result
	state RunState
	// sched is how every ForEach of the run deals its tasks, resolved from
	// opts once.
	sched vwarp.Schedule
	// round runs one round and reports whether the run is done.
	round func() (bool, error)
	// result packs the answer from the device buffers.
	result func() R
	// pending holds the current round's launch stats until it commits,
	// launches and deferred its launch and deferred-task counts.
	pending            []*simt.LaunchStats
	launches, deferred int
	done               bool
}

// newRun starts a run that records into res: it applies the option
// defaults to *opts, validates them, sets the warp width and resolves the
// run's schedule, allocating its claim counter when opts.Dynamic is set and
// an outlier queue of n slots, one per vertex, when opts.DeferThreshold is
// set and n > 0. A run whose kernels never call Row passes n = 0.
func newRun[R any](d *simt.Device, res *Result, opts *Options, n int) (*Run[R], error) {
	*opts = opts.withDefaults(d)
	if err := opts.validate(d); err != nil {
		return nil, err
	}
	res.Stats.WarpWidth = d.Config().WarpWidth
	r := &Run[R]{d: d, opts: *opts, res: res, sched: vwarp.Schedule{K: opts.K, Blocked: opts.Blocked}}
	if opts.Dynamic {
		r.sched.Counter, r.sched.Chunk = r.i32("sched.counter", 1), opts.Chunk
	}
	if opts.DeferThreshold > 0 && n > 0 {
		q := vwarp.NewOutlierQueue(d, "sched.outliers", n, opts.DeferThreshold)
		r.keep(q.Items, q.Count)
		r.sched.Outliers = q
	}
	return r, nil
}

// Step runs one round. When every launch in it succeeds it adds the
// round's stats and launches to the result and counts one iteration; when
// the round fails it records nothing.
func (r *Run[R]) Step() (bool, error) {
	if r.done {
		return true, nil
	}
	r.pending, r.launches, r.deferred = r.pending[:0], 0, 0
	done, err := r.round()
	if err != nil {
		return false, err
	}
	for _, s := range r.pending {
		r.res.Stats.Add(s)
	}
	r.res.Launches += r.launches
	r.res.Deferred += r.deferred
	r.res.Iterations++
	r.done = done
	return done, nil
}

// State returns every buffer the run allocated, plus its graph.
func (r *Run[R]) State() RunState { return r.state }

// Iterations returns the number of completed rounds.
func (r *Run[R]) Iterations() int { return r.res.Iterations }

// Result packs and returns the run's output. Call it after Step reports
// done (calling earlier returns the progress so far).
func (r *Run[R]) Result() R { return r.result() }

func (r *Run[R]) setLaunch(lo simt.LaunchOpts) { r.Launch = lo }

// launch runs kernel as part of the current round and adds its stats to
// the round's pending total. It zeroes the schedule's claim counter first,
// so every launch deals its tasks from the start. When the kernel deferred
// tasks to the schedule's outlier queue, launch runs it again as the rerun
// pass over them, one warp each. It wraps a failure as
// "gpualgo: <what>: <err>", formatting what with args.
func (r *Run[R]) launch(lc simt.LaunchConfig, kernel simt.Kernel, what string, args ...any) error {
	if c := r.sched.Counter; c != nil {
		c.Data()[0] = 0
	}
	q := r.sched.Outliers
	if q != nil {
		q.Reset()
	}
	if err := r.launchOnce(lc, kernel, what, args); err != nil {
		return err
	}
	if q == nil || q.Len() == 0 {
		return nil
	}
	n := q.Len()
	q.Rerun(true)
	err := r.launchOnce(r.grid(n*r.d.Config().WarpWidth/r.opts.K), kernel, what+" deferred pass", args)
	q.Rerun(false)
	r.deferred += n
	return err
}

// launchOnce runs one launch of the current round.
func (r *Run[R]) launchOnce(lc simt.LaunchConfig, kernel simt.Kernel, what string, args []any) error {
	stats, err := r.d.LaunchWith(lc, r.Launch, kernel)
	if err != nil {
		return fmt.Errorf("gpualgo: %s: %w", fmt.Sprintf(what, args...), err)
	}
	r.pending = append(r.pending, stats)
	r.launches++
	return nil
}

// absorb adds a finished inner run's record to the current round, as if
// the round had made its launches.
func (r *Run[R]) absorb(res *Result) {
	r.pending = append(r.pending, &res.Stats)
	r.launches += res.Launches
	r.deferred += res.Deferred
}

// grid is the run's launch shape for numTasks tasks.
func (r *Run[R]) grid(numTasks int) simt.LaunchConfig { return r.opts.grid(r.d, numTasks) }

// keep adds buffers allocated elsewhere to State.
func (r *Run[R]) keep(bufs ...*simt.BufI32) { r.state.I32 = append(r.state.I32, bufs...) }

// i32 allocates a run buffer.
func (r *Run[R]) i32(name string, n int) *simt.BufI32 {
	b := r.d.AllocI32(name, n)
	r.keep(b)
	return b
}

// f32 allocates a run buffer.
func (r *Run[R]) f32(name string, n int) *simt.BufF32 {
	b := r.d.AllocF32(name, n)
	r.state.F32 = append(r.state.F32, b)
	return b
}

// uploadI32 uploads data as a frozen run buffer: every run uploads only
// inputs its kernels read.
func (r *Run[R]) uploadI32(name string, data []int32) *simt.BufI32 {
	b := r.d.UploadI32(name, data).Freeze()
	r.keep(b)
	return b
}

// uploadF32 uploads data as a frozen run buffer, like uploadI32.
func (r *Run[R]) uploadF32(name string, data []float32) *simt.BufF32 {
	b := r.d.UploadF32(name, data).Freeze()
	r.state.F32 = append(r.state.F32, b)
	return b
}

// graph adds dg's arrays to State and returns dg.
func (r *Run[R]) graph(dg *DeviceGraph) *DeviceGraph {
	r.keep(dg.RowPtr, dg.Col)
	if dg.Weights != nil {
		r.keep(dg.Weights)
	}
	return dg
}

// finish steps s until it reports done.
func finish(s Stepper) error {
	for {
		done, err := s.Step()
		if err != nil || done {
			return err
		}
	}
}

// complete runs r to completion and returns its result: the body of every
// one-shot entry point.
func complete[R any](r *Run[R], err error) (R, error) {
	if err == nil {
		err = finish(r)
	}
	if err != nil {
		var zero R
		return zero, err
	}
	return r.Result(), nil
}
