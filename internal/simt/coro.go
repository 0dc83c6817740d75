//go:build go1.23

// This file is the only one in the module that needs Go 1.23 (iter.Pull);
// the build constraint raises its language version alone, so go.mod stays
// at go 1.22.

package simt

import (
	"iter"
	"sync"
	"sync/atomic"
)

// coro is a runtime coroutine that runs warps' kernels, one warp at a time.
// Only its domain's loop resumes it (resume); the warp it runs suspends it
// when it hands the token to another warp, and it yields free once the
// warp's kernel has returned. A switch between coroutines is a direct
// switch of the running goroutine on one thread, with no run queue.
type coro struct {
	// w is the warp the loop bound it to. The coroutine clears it before it
	// yields free, so an idle coroutine keeps no launch alive.
	w     *warpRT
	next  func() (free, ok bool)
	stop  func()
	yield func(free bool) bool
}

// coroPool holds the idle coroutines of every Device, so a warp admitted in
// a later launch, or on a later device, reuses a parked coroutine whose
// stack has already grown instead of starting a goroutine. Within a launch
// each domain recycles its own (domain.free); spillCoros returns them here.
// It is not a sync.Pool: a parked coroutine is a goroutine, so one the
// garbage collector dropped from the pool would leak, never stopped.
var coroPool struct {
	sync.Mutex
	free []*coro
}

// corosCreated and corosStopped count coroutines started and ended over the
// life of the process.
var corosCreated, corosStopped atomic.Int64

func newCoro() *coro {
	co := &coro{}
	co.next, co.stop = iter.Pull(func(yield func(bool) bool) {
		co.yield = yield
		for {
			w := co.w
			w.ctx.l.runWarp(w)
			co.w = nil
			if !yield(true) {
				return
			}
		}
	})
	corosCreated.Add(1)
	return co
}

// suspend parks the running warp's coroutine until the loop resumes it.
func (co *coro) suspend() { co.yield(false) }

// resume runs w until it hands the token on: on the coroutine bound to it,
// or on a free one it binds now, at w's first resume. A coroutine whose
// warp's kernel returned goes back to d's free list; the warp runtime may
// already serve a new admission by then, which will be bound afresh.
func (d *domain) resume(w *warpRT) {
	co := w.co
	if co == nil {
		co = d.takeCoro()
		co.w, w.co = w, co
	}
	if free, _ := co.next(); free {
		w.co = nil
		d.free = append(d.free, co)
	}
}

// takeCoro returns a free coroutine: d's own, then one from the pool, then
// a new one.
func (d *domain) takeCoro() *coro {
	if n := len(d.free); n > 0 {
		co := d.free[n-1]
		d.free = d.free[:n-1]
		return co
	}
	coroPool.Lock()
	if n := len(coroPool.free); n > 0 {
		co := coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
		coroPool.Unlock()
		return co
	}
	coroPool.Unlock()
	return newCoro()
}

// spillCoros moves the domains' free coroutines into the pool at launch
// end, once every domain loop has returned. Every coroutine is free by
// then: a domain's loop returns only after each resident warp finished or
// unwound. The pool keeps at most as many idle coroutines as the device can
// hold resident warps; spillCoros stops the rest.
func (l *launch) spillCoros() {
	limit := l.cfg.NumSMs * l.cfg.MaxWarpsPerSM
	coroPool.Lock()
	defer coroPool.Unlock()
	for i := range l.doms {
		for _, co := range l.doms[i].free {
			if len(coroPool.free) < limit {
				coroPool.free = append(coroPool.free, co)
			} else {
				co.stop()
				corosStopped.Add(1)
			}
		}
		clear(l.doms[i].free)
		l.doms[i].free = l.doms[i].free[:0]
	}
}
