package simt

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// recycleBufs are the buffers of the recycled-shadow sequence: lengths that
// end in a partial shadow page, one element, and two past 16K elements so
// their shadows use a second radix leaf.
type recycleBufs struct {
	one, part, big, mid, hot *BufI32
	fpart, fbig              *BufF32
}

// recycleLens are the element counts of one, part, big, mid, hot, fpart and
// fbig, in allocation order.
var recycleLens = [7]int{1, 300, 1<<14 + 700, 1000, 7, 520, 1<<14 + 116}

// newRecycleBufs allocates the sequence's buffers on d, in a fixed order so
// every device gives them the same addresses, holding the contents init
// (one slice per buffer, in recycleLens order).
func newRecycleBufs(d *Device, init [7][]int32) *recycleBufs {
	f32 := func(src []int32) []float32 {
		out := make([]float32, len(src))
		for i, v := range src {
			out[i] = float32(v) / 4
		}
		return out
	}
	return &recycleBufs{
		one:   d.UploadI32("one", init[0]),
		part:  d.UploadI32("part", init[1]),
		big:   d.UploadI32("big", init[2]),
		mid:   d.UploadI32("mid", init[3]),
		hot:   d.UploadI32("hot", init[4]),
		fpart: d.UploadF32("fpart", f32(init[5])),
		fbig:  d.UploadF32("fbig", f32(init[6])),
	}
}

// snapshot copies every buffer's contents, float32 ones as their value
// times four (every value the sequence computes is a multiple of 1/4).
func (b *recycleBufs) snapshot() [7][]int32 {
	f := func(src []float32) []int32 {
		out := make([]int32, len(src))
		for i, v := range src {
			out[i] = int32(v * 4)
		}
		return out
	}
	return [7][]int32{
		append([]int32(nil), b.one.Data()...),
		append([]int32(nil), b.part.Data()...),
		append([]int32(nil), b.big.Data()...),
		append([]int32(nil), b.mid.Data()...),
		append([]int32(nil), b.hot.Data()...),
		f(b.fpart.Data()),
		f(b.fbig.Data()),
	}
}

// strideLoop runs body over idx = gtid, gtid+gridThreads, ... below n.
func strideLoop(w *WarpCtx, n int, body func(idx []int32)) {
	stride := int32(w.GridThreads())
	idx := w.CopyI32(w.GlobalThreadIDs())
	w.While(func(l int) bool { return idx[l] < int32(n) }, func() {
		body(idx)
		w.AddConstI32(idx, stride)
	})
}

// recycleStep is one launch of the sequence.
type recycleStep struct {
	lc     LaunchConfig
	kernel func(b *recycleBufs) Kernel
}

// recycleSteps stores to and atomically updates different buffers at each
// launch, so each launch arms shadows, leaves and pages the one before
// merged for other buffers. Step 3 is the one the fault plan aborts.
var recycleSteps = []recycleStep{
	{Grid1D(4096, 64), recycleStores},
	{Grid1D(4096, 64), func(b *recycleBufs) Kernel {
		return func(w *WarpCtx) {
			// The same loads from the same SMs as step 0's last loop: they
			// hit only in a cache that kept step 0's lines.
			recycleLoads(w, b)
			gtid := w.GlobalThreadIDs()
			slot, old, quarter := w.VecI32(), w.VecI32(), w.VecF32()
			w.Apply(1, func(l int) { slot[l] = gtid[l] % 7; quarter[l] = 0.25 })
			// SM 0 starts its atomics late, so a hot cell's last atomic
			// does not come from the highest SM that touched it, and only
			// the overlay holds the cell's final value.
			if w.SMID() == 0 {
				for i := 0; i < 256; i++ {
					w.AddConstI32(old, 0)
				}
			}
			w.AtomicAddI32(b.hot, slot, w.ConstI32(1), old)
			w.Apply(1, func(l int) { slot[l] = gtid[l] % int32(b.mid.Len()) })
			w.StoreI32(b.mid, slot, old)
			w.Apply(1, func(l int) { slot[l] = gtid[l] % int32(b.fpart.Len()) })
			w.AtomicAddF32(b.fpart, slot, quarter, nil)
		}
	}},
	{Grid1D(3000, 128), func(b *recycleBufs) Kernel {
		return func(w *WarpCtx) {
			v, rev, f := w.VecI32(), w.VecI32(), w.VecF32()
			strideLoop(w, b.fbig.Len(), func(idx []int32) {
				w.Apply(1, func(l int) { rev[l] = int32(b.fbig.Len()-1) - idx[l] })
				w.LoadF32(b.fbig, rev, f)
				w.Apply(1, func(l int) { f[l] += 0.5 })
				w.StoreF32(b.fbig, rev, f)
			})
			// Atomics into the big buffer's second leaf, from every SM.
			strideLoop(w, 700, func(idx []int32) {
				w.Apply(1, func(l int) { rev[l] = 1<<14 + idx[l]; v[l] = idx[l] - 350 })
				w.AtomicMinI32(b.big, rev, v, nil)
			})
		}
	}},
	{Grid1D(8192, 64), func(b *recycleBufs) Kernel {
		return func(w *WarpCtx) {
			v := w.VecI32()
			strideLoop(w, b.big.Len(), func(idx []int32) {
				w.LoadI32(b.big, idx, v)
				w.Apply(1, func(l int) { v[l] ^= 0x5a5a })
				w.StoreI32(b.big, idx, v)
				w.Apply(1, func(l int) { v[l] = idx[l] % 7 })
				w.AtomicAddI32(b.hot, v, idx, nil)
			})
		}
	}},
	// More blocks than the SMs hold at once, so blocks retire and are
	// admitted again within the launch.
	{Grid1D(2048, 32), func(b *recycleBufs) Kernel {
		return func(w *WarpCtx) {
			gtid := w.GlobalThreadIDs()
			v, zero := w.VecI32(), w.ConstI32(0)
			strideLoop(w, b.part.Len(), func(idx []int32) {
				w.LoadI32(b.big, idx, v)
				w.Apply(1, func(l int) { v[l] += idx[l] })
				w.StoreI32(b.part, idx, v)
			})
			// Shared memory is read before it is written, so a block that
			// saw another block's array would store other values.
			sh := w.SharedI32("acc", w.BlockDim())
			w.LoadSharedI32(sh, w.LaneIDs(), v)
			w.Apply(1, func(l int) { v[l] += gtid[l] })
			w.StoreSharedI32(sh, w.LaneIDs(), v)
			half := w.VecI32()
			w.Apply(1, func(l int) { half[l] = gtid[l] / 2 })
			w.If(func(l int) bool { return half[l] < int32(b.mid.Len()) }, func() {
				w.StoreI32(b.mid, half, v)
			}, nil)
			w.If(func(l int) bool { return gtid[l] == 5 }, func() {
				w.StoreI32(b.one, zero, w.ConstI32(41))
			}, nil)
		}
	}},
	{Grid1D(4096, 128), func(b *recycleBufs) Kernel {
		return func(w *WarpCtx) {
			gtid := w.GlobalThreadIDs()
			v, f := w.VecI32(), w.VecF32()
			// Atomics again on the cells of step 1's overlays.
			w.Apply(1, func(l int) { v[l] = gtid[l] % 7 })
			w.AtomicAddI32(b.hot, v, w.ConstI32(3), nil)
			strideLoop(w, b.mid.Len(), func(idx []int32) {
				w.Apply(1, func(l int) { v[l] = idx[l] * 16 })
				w.AtomicOrI32(b.big, v, idx, nil)
				w.StoreI32(b.mid, idx, v)
			})
			strideLoop(w, b.fpart.Len(), func(idx []int32) {
				w.Apply(1, func(l int) { f[l] = 1.5 })
				w.AtomicAddF32(b.fpart, idx, f, nil)
				w.Apply(1, func(l int) { v[l] = idx[l] * 31 % int32(b.fbig.Len()); f[l] = 1.75 })
				w.AtomicAddF32(b.fbig, v, f, nil)
			})
		}
	}},
	{Grid1D(4096, 64), recycleStores},
}

// recycleStores rewrites the big buffer and the partial one with plain
// stores, then loads the big buffer's first 2048 elements; the sequence
// runs it first and last.
func recycleStores(b *recycleBufs) Kernel {
	return func(w *WarpCtx) {
		v := w.VecI32()
		strideLoop(w, b.big.Len(), func(idx []int32) {
			w.LoadI32(b.big, idx, v)
			w.Apply(1, func(l int) { v[l] = v[l]*3 + idx[l] })
			w.StoreI32(b.big, idx, v)
		})
		strideLoop(w, b.part.Len(), func(idx []int32) {
			w.StoreI32(b.part, idx, idx)
		})
		recycleLoads(w, b)
	}
}

// recycleLoads loads the big buffer's first 2048 elements, one per thread of
// a 4096-thread grid.
func recycleLoads(w *WarpCtx, b *recycleBufs) {
	gtid, v := w.GlobalThreadIDs(), w.VecI32()
	w.If(func(l int) bool { return gtid[l] < 2048 }, func() {
		w.LoadI32(b.big, gtid, v)
	}, nil)
}

// recycleAbortStep is the step the fault plan aborts, and recycleSharedStep
// the one whose blocks read shared memory before they write it.
const (
	recycleAbortStep  = 3
	recycleSharedStep = 4
)

// recycleConfig is the sequence's device: eight SMs with their read-only
// caches on, so a cache that kept lines across launches would change the
// stats.
func recycleConfig(parallelSMs int) Config {
	cfg := testConfig()
	cfg.NumSMs = 8
	cfg.CacheLines = 64
	cfg.ParallelSMs = parallelSMs
	return cfg
}

// recycleOutcome is what one launch of the sequence leaves behind.
type recycleOutcome struct {
	stats  *LaunchStats
	failed bool
	kind   FaultKind // of the launch's *KernelFault when it failed
	mem    [7][]int32
}

// runRecycleStep launches step i on d and reports its outcome.
func runRecycleStep(t *testing.T, d *Device, b *recycleBufs, i int) recycleOutcome {
	t.Helper()
	st := recycleSteps[i]
	stats, err := d.Launch(st.lc, st.kernel(b))
	out := recycleOutcome{stats: stats, mem: b.snapshot()}
	var kf *KernelFault
	switch {
	case errors.As(err, &kf):
		out.failed, out.kind = true, kf.Kind
	case err != nil:
		t.Fatalf("step %d: %v", i, err)
	}
	return out
}

// TestRecycledShadowsMatchFreshDevices runs a sequence of launches that store
// to and atomically update buffers of different lengths on one device, which
// recycles its SM runtimes, caches and shadows from launch to launch, with an
// injected abort in the middle. Every launch must leave the same memory
// contents and LaunchStats as the same launch on a fresh device holding the
// same contents, at ParallelSMs 1, 2 and 8, and the contents must not depend
// on the host mode.
func TestRecycledShadowsMatchFreshDevices(t *testing.T) {
	var init [7][]int32
	for k, n := range recycleLens {
		init[k] = make([]int32, n)
		for i := range init[k] {
			init[k][i] = int32((i*2654435761)>>7) % 1000
		}
	}
	var first []recycleOutcome
	for _, mode := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("ParallelSMs=%d", mode), func(t *testing.T) {
			d := MustNewDevice(recycleConfig(mode))
			d.SetFaultPlan(&FaultPlan{Seed: 7, AbortEvery: recycleAbortStep + 1, MaxFaults: 1})
			b := newRecycleBufs(d, init)
			var got []recycleOutcome
			for i := range recycleSteps {
				got = append(got, runRecycleStep(t, d, b, i))
			}
			if out := got[recycleAbortStep]; !out.failed || out.kind != FaultAbort {
				t.Fatalf("step %d: failed %v with fault kind %v, want the injected abort", recycleAbortStep, out.failed, out.kind)
			}
			// Each thread adds its id to a zeroed shared cell and stores it
			// at mid[gtid/2], where the odd thread's store wins.
			for i, v := range got[recycleSharedStep].mem[3] {
				if v != int32(2*i+1) {
					t.Fatalf("step %d: mid[%d] = %d, want %d: a block saw another block's shared memory", recycleSharedStep, i, v, 2*i+1)
				}
			}
			before := init
			for i, out := range got {
				fd := MustNewDevice(recycleConfig(mode))
				if i == recycleAbortStep {
					fd.SetFaultPlan(&FaultPlan{Seed: 7, AbortEvery: 1, MaxFaults: 1})
				}
				want := runRecycleStep(t, fd, newRecycleBufs(fd, before), i)
				if out.failed != want.failed || out.kind != want.kind {
					t.Errorf("step %d: failed %v (%v), fresh device %v (%v)", i, out.failed, out.kind, want.failed, want.kind)
				}
				if !reflect.DeepEqual(out.stats, want.stats) {
					t.Errorf("step %d: stats differ from a fresh device's:\n got %+v\nwant %+v", i, out.stats, want.stats)
				}
				if !reflect.DeepEqual(out.mem, want.mem) {
					t.Errorf("step %d: memory differs from a fresh device's", i)
				}
				before = out.mem
			}
			if first == nil {
				first = got
				return
			}
			for i := range got {
				if !reflect.DeepEqual(got[i].mem, first[i].mem) {
					t.Errorf("step %d: memory differs from ParallelSMs=1's", i)
				}
			}
		})
	}
}
