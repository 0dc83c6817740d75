package simt

import "math/bits"

// memory is the simulated global-memory address space. Buffers receive
// disjoint, segment-aligned address ranges so the coalescing model can map
// any (buffer, element) pair to a byte address.
type memory struct {
	nextAddr uint64
	segBytes uint64
}

func newMemory(segBytes int) *memory {
	return &memory{
		// Leave address 0 unused so a zero address is always a bug.
		nextAddr: uint64(segBytes),
		segBytes: uint64(segBytes),
	}
}

func (m *memory) reserve(bytes int) uint64 {
	base := m.nextAddr
	span := (uint64(bytes) + m.segBytes - 1) / m.segBytes * m.segBytes
	if span == 0 {
		span = m.segBytes
	}
	m.nextAddr += span
	return base
}

// Launch-time memory model. While a launch is in flight no kernel writes the
// base data of any buffer: plain loads read it directly, plain stores land in
// a per-SM write shadow (visible to later loads from the same SM), and
// atomics read-modify-write a single globally-ordered overlay. At launch end
// everything folds back into the base array: per-SM shadows in ascending SM
// id, then the atomic overlay. Because no simulated memory effect ever
// crosses between SMs mid-launch except through the (deterministically
// ordered) atomic overlay, the simulation computes bit-identical results and
// stats whether the SMs run on one host goroutine or many.

const (
	shadowPageShift = 8 // 256 elements (1 KiB) per shadow page
	shadowPageSize  = 1 << shadowPageShift
	shadowPageMask  = shadowPageSize - 1

	// The page table is a flat two-level radix: a root slice of leaf
	// pointers, each leaf covering shadowLeafSize consecutive pages. Leaves
	// materialize on first store into their range, so creating a shadow
	// costs one allocation proportional to len(base)/16K instead of the two
	// len(base)/256-sized tables the flat layout needed — shadows are
	// created per (buffer, SM) per launch, so this is per-launch overhead.
	shadowLeafShift = 6 // 64 pages (16K elements) per leaf
	shadowLeafSize  = 1 << shadowLeafShift
	shadowLeafMask  = shadowLeafSize - 1

	// The lookup cache in front of the radix is direct-mapped by page
	// number, shadowCacheWays wide: stride loops and frontier scans touch a
	// couple of pages alternately, which a one-entry cache thrashes on.
	shadowCacheWays = 4
	shadowCacheMask = shadowCacheWays - 1
)

type shadowElem interface{ ~int32 | ~float32 }

// shadowLeaf holds one radix leaf's worth of copy-on-write pages and their
// dirty bitmaps. Page and dirty pointers live in fixed arrays so a leaf is a
// single allocation.
type shadowLeaf[T shadowElem] struct {
	pages [shadowLeafSize][]T
	dirty [shadowLeafSize][]uint64
}

// bufShadow overlays writes on a buffer whose base data is frozen for the
// duration of a launch. Pages are copied from base on first touch so loads
// are a plain index; dirty bits record which elements were actually written
// so the end-of-launch merge never clobbers another shard's elements with
// stale base copies.
//
// A shadow is only ever accessed by one goroutine at a time (per-SM shadows
// by their SM's token holder, the overlay under the atomic gate), so the
// cache mutation in load is safe. Only materialized pages enter the cache,
// so a hit can never mask a page created later; shadows are launch-scoped,
// so no cross-launch generation stamp is needed — fresh tags per shadow are
// the generation.
type bufShadow[T shadowElem] struct {
	base []T
	root []*shadowLeaf[T]

	cacheTag [shadowCacheWays]int32
	cachePg  [shadowCacheWays][]T
}

func newBufShadow[T shadowElem](base []T) *bufShadow[T] {
	pages := (len(base) + shadowPageMask) >> shadowPageShift
	leaves := (pages + shadowLeafMask) >> shadowLeafShift
	s := &bufShadow[T]{
		base: base,
		root: make([]*shadowLeaf[T], leaves),
	}
	for i := range s.cacheTag {
		s.cacheTag[i] = -1
	}
	return s
}

// page returns the materialized page holding element i, or nil.
func (s *bufShadow[T]) page(p int32) []T {
	leaf := s.root[p>>shadowLeafShift]
	if leaf == nil {
		return nil
	}
	return leaf.pages[p&shadowLeafMask]
}

func (s *bufShadow[T]) load(i int32) T {
	p := i >> shadowPageShift
	slot := p & shadowCacheMask
	if s.cacheTag[slot] == p {
		return s.cachePg[slot][i&shadowPageMask]
	}
	if pg := s.page(p); pg != nil {
		s.cacheTag[slot], s.cachePg[slot] = p, pg
		return pg[i&shadowPageMask]
	}
	return s.base[i]
}

// written reports whether element i was stored through this shadow.
func (s *bufShadow[T]) written(i int32) bool {
	p := i >> shadowPageShift
	leaf := s.root[p>>shadowLeafShift]
	if leaf == nil {
		return false
	}
	words := leaf.dirty[p&shadowLeafMask]
	if words == nil {
		return false
	}
	off := int(i) & shadowPageMask
	return words[off>>6]&(1<<uint(off&63)) != 0
}

// materialize returns (creating if needed) page p and its dirty bitmap.
func (s *bufShadow[T]) materialize(p int32) ([]T, []uint64) {
	li := p >> shadowLeafShift
	leaf := s.root[li]
	if leaf == nil {
		leaf = &shadowLeaf[T]{}
		s.root[li] = leaf
	}
	pi := p & shadowLeafMask
	pg := leaf.pages[pi]
	if pg == nil {
		lo := int(p) << shadowPageShift
		hi := lo + shadowPageSize
		if hi > len(s.base) {
			hi = len(s.base)
		}
		pg = make([]T, shadowPageSize)
		copy(pg, s.base[lo:hi])
		leaf.pages[pi] = pg
		leaf.dirty[pi] = make([]uint64, shadowPageSize/64)
	}
	slot := p & shadowCacheMask
	s.cacheTag[slot], s.cachePg[slot] = p, pg
	return pg, leaf.dirty[pi]
}

func (s *bufShadow[T]) store(i int32, v T) {
	pg, dirty := s.materialize(i >> shadowPageShift)
	off := int(i) & shadowPageMask
	pg[off] = v
	dirty[off>>6] |= 1 << uint(off&63)
}

// loadAll gathers dst[lane] = shadow[idx[lane]] for every lane — the
// full-mask data phase with the page-cache probe hoisted out of the method
// call boundary and a one-entry local in front of it (consecutive lanes
// overwhelmingly hit the same page).
func (s *bufShadow[T]) loadAll(idx []int32, dst []T) {
	curPage := int32(-1)
	var curPg []T
	for lane := range dst {
		i := idx[lane]
		if p := i >> shadowPageShift; p == curPage {
			dst[lane] = curPg[i&shadowPageMask]
		} else if slot := p & shadowCacheMask; s.cacheTag[slot] == p {
			curPage, curPg = p, s.cachePg[slot]
			dst[lane] = curPg[i&shadowPageMask]
		} else if pg := s.page(p); pg != nil {
			s.cacheTag[slot], s.cachePg[slot] = p, pg
			curPage, curPg = p, pg
			dst[lane] = pg[i&shadowPageMask]
		} else {
			dst[lane] = s.base[i]
		}
	}
}

// loadMasked is loadAll restricted to mask-active lanes.
func (s *bufShadow[T]) loadMasked(idx []int32, dst []T, mask []bool) {
	for lane := range dst {
		if mask[lane] {
			dst[lane] = s.load(idx[lane])
		}
	}
}

// storeAll scatters src[lane] into the shadow at idx[lane] for every lane,
// with a one-entry local page in front of materialize so runs of lanes
// sharing a page pay one radix walk.
func (s *bufShadow[T]) storeAll(idx []int32, src []T) {
	curPage := int32(-1)
	var curPg []T
	var curDirty []uint64
	for lane := range src {
		i := idx[lane]
		if p := i >> shadowPageShift; p != curPage {
			curPg, curDirty = s.materialize(p)
			curPage = p
		}
		off := int(i) & shadowPageMask
		curPg[off] = src[lane]
		curDirty[off>>6] |= 1 << uint(off&63)
	}
}

// storeMasked is storeAll restricted to mask-active lanes.
func (s *bufShadow[T]) storeMasked(idx []int32, src []T, mask []bool) {
	for lane := range src {
		if mask[lane] {
			s.store(idx[lane], src[lane])
		}
	}
}

// merge folds the dirty elements back into the base array.
func (s *bufShadow[T]) merge() {
	for li, leaf := range s.root {
		if leaf == nil {
			continue
		}
		for pi := range leaf.pages {
			words := leaf.dirty[pi]
			if words == nil {
				continue
			}
			elemBase := (li<<shadowLeafShift + pi) << shadowPageShift
			pg := leaf.pages[pi]
			for w, word := range words {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << uint(b)
					off := w*64 + b
					s.base[elemBase+off] = pg[off]
				}
			}
		}
	}
}

// BufI32 is a device-resident buffer of int32 elements.
type BufI32 struct {
	name string
	base uint64
	data []int32

	// hostInit records that the host plausibly initialized the buffer
	// (Upload, Fill, or any Data() call — Data hands out a writable alias,
	// so this is deliberately conservative). The sanitizer's memcheck uses
	// it: reads of a buffer that was never host-touched and never
	// kernel-written are reads of CUDA-uninitialized memory.
	hostInit bool

	// frozen marks a buffer no kernel may write; see Freeze.
	frozen bool

	// Launch-scoped write shadows: sh[smID] is that SM's private store
	// shadow, ov the globally-ordered atomic overlay. Created lazily during
	// a launch (launch.initShadows sizes sh) and folded back into data by
	// launch.mergeMemory; nil between launches.
	sh []*bufShadow[int32]
	ov *bufShadow[int32]
}

// shadowFor returns (creating on first use) the store shadow owned by smID.
// Only the owning SM's goroutine may call it.
func (b *BufI32) shadowFor(smID int) *bufShadow[int32] {
	if b.sh[smID] == nil {
		b.sh[smID] = newBufShadow(b.data)
	}
	return b.sh[smID]
}

// overlay returns (creating on first use) the atomic overlay. Callers must
// hold the launch's atomic gate.
func (b *BufI32) overlay() *bufShadow[int32] {
	if b.ov == nil {
		b.ov = newBufShadow(b.data)
	}
	return b.ov
}

// Name returns the buffer's debug name.
func (b *BufI32) Name() string { return b.name }

// Len returns the element count.
func (b *BufI32) Len() int { return len(b.data) }

// Data exposes the backing store for host-side reads and writes between
// launches (the analogue of cudaMemcpy). It must not be touched while a
// launch is in flight.
func (b *BufI32) Data() []int32 {
	b.hostInit = true
	return b.data
}

// Fill sets every element to v (host-side).
func (b *BufI32) Fill(v int32) {
	b.hostInit = true
	for i := range b.data {
		b.data[i] = v
	}
}

// HostInitialized reports whether the host ever uploaded, filled, or aliased
// (via Data) this buffer — i.e. whether its contents may legitimately
// predate any kernel write.
func (b *BufI32) HostInitialized() bool { return b.hostInit }

// Freeze marks b read-only for kernels and returns it, the analogue of
// passing an array as const __restrict__. A store or atomic to a frozen
// buffer fails the launch with a FaultReadOnly *KernelFault. A load from it
// cannot depend on the order in which warps' Go code runs, so the warp
// keeps running its kernel past it as past an ALU instruction (see the
// protocol comment in sched.go). The host may still rewrite the contents
// between launches through Data or Fill.
func (b *BufI32) Freeze() *BufI32 {
	b.frozen = true
	return b
}

// BufF32 is a device-resident buffer of float32 elements.
type BufF32 struct {
	name string
	base uint64
	data []float32

	// hostInit mirrors BufI32.hostInit; see there.
	hostInit bool
	// frozen marks a buffer no kernel may write; see Freeze.
	frozen bool

	// Launch-scoped write shadows; see BufI32.
	sh []*bufShadow[float32]
	ov *bufShadow[float32]
}

// shadowFor returns (creating on first use) the store shadow owned by smID.
// Only the owning SM's goroutine may call it.
func (b *BufF32) shadowFor(smID int) *bufShadow[float32] {
	if b.sh[smID] == nil {
		b.sh[smID] = newBufShadow(b.data)
	}
	return b.sh[smID]
}

// overlay returns (creating on first use) the atomic overlay. Callers must
// hold the launch's atomic gate.
func (b *BufF32) overlay() *bufShadow[float32] {
	if b.ov == nil {
		b.ov = newBufShadow(b.data)
	}
	return b.ov
}

// Name returns the buffer's debug name.
func (b *BufF32) Name() string { return b.name }

// Len returns the element count.
func (b *BufF32) Len() int { return len(b.data) }

// Data exposes the backing store for host-side access between launches.
func (b *BufF32) Data() []float32 {
	b.hostInit = true
	return b.data
}

// Fill sets every element to v (host-side).
func (b *BufF32) Fill(v float32) {
	b.hostInit = true
	for i := range b.data {
		b.data[i] = v
	}
}

// HostInitialized reports whether the host ever uploaded, filled, or aliased
// (via Data) this buffer; see BufI32.HostInitialized.
func (b *BufF32) HostInitialized() bool { return b.hostInit }

// Freeze marks b read-only for kernels and returns it; see BufI32.Freeze.
func (b *BufF32) Freeze() *BufF32 {
	b.frozen = true
	return b
}

// coalesceSegments appends the distinct SegmentBytes-sized segments covered
// by the given byte addresses to dst — one entry per global-memory
// transaction the warp instruction generates.
func coalesceSegments(addrs []uint64, segBytes uint64, dst []uint64) []uint64 {
	// Warp width is at most 64; a tiny open-coded set beats a map.
outer:
	for _, a := range addrs {
		s := a / segBytes
		for _, seen := range dst {
			if seen == s {
				continue outer
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// conflictGroups returns, for a set of atomic target addresses, the maximum
// number of lanes hitting any single address (hardware serializes these).
func conflictGroups(addrs []uint64) int {
	var uniq [64]uint64
	var count [64]int
	n := 0
	maxC := 0
outer:
	for _, a := range addrs {
		for i := 0; i < n; i++ {
			if uniq[i] == a {
				count[i]++
				if count[i] > maxC {
					maxC = count[i]
				}
				continue outer
			}
		}
		uniq[n] = a
		count[n] = 1
		if maxC == 0 {
			maxC = 1
		}
		n++
	}
	return maxC
}
