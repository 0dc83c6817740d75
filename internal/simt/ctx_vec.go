package simt

// Vectorized lane primitives: the batch-execution half of the interpret
// loop's round-2 speedup. Each method below is semantically equivalent to a
// one-instruction Apply with the obvious per-lane closure — identical
// instruction, issue-slot, lane-op, and FullMaskOps accounting, identical
// masked behavior (inactive lanes are untouched) — but executes as a tight
// specialized loop over the SoA lane slabs instead of width indirect calls
// through a closure. On the full-mask fast path the loop body is a dense
// slice walk the compiler can bounds-check-eliminate and unroll.
//
// Because the charge is bit-identical to the Apply it replaces, kernels may
// convert uniform arithmetic to these primitives without perturbing cycles,
// stats, or the sanitizer stream; TestFastPathEquivalence pins the masked
// and full-mask paths against each other, and the differential harness pins
// converted kernels against their CPU oracles across host modes.

// chargeALU1 charges one ALU instruction over the active lanes — exactly
// what Apply(1, f) charges. It is the accounting tail of every
// one-instruction vector primitive, Ballot and BroadcastI32.
func (c *WarpCtx) chargeALU1() {
	c.chargeALU(1, int64(c.activeN), int64(c.activeN))
}

// FillI32 sets dst[lane] = v on every active lane (one instruction) —
// Apply(1, func(l) { dst[l] = v }) without the closure dispatch.
func (c *WarpCtx) FillI32(dst []int32, v int32) {
	if c.fullMask() {
		dst = dst[:c.width]
		for lane := range dst {
			dst[lane] = v
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = v
			}
		}
	}
	c.chargeALU1()
}

// FillF32 is FillI32 for float registers.
func (c *WarpCtx) FillF32(dst []float32, v float32) {
	if c.fullMask() {
		dst = dst[:c.width]
		for lane := range dst {
			dst[lane] = v
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = v
			}
		}
	}
	c.chargeALU1()
}

// AddConstI32 performs dst[lane] += k on every active lane (one
// instruction) — the strided-loop induction step every stride kernel issues.
func (c *WarpCtx) AddConstI32(dst []int32, k int32) {
	if c.fullMask() {
		dst = dst[:c.width]
		for lane := range dst {
			dst[lane] += k
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] += k
			}
		}
	}
	c.chargeALU1()
}

// AddI32 performs dst[lane] = a[lane] + b[lane] on every active lane (one
// instruction). dst may alias a or b.
func (c *WarpCtx) AddI32(dst, a, b []int32) {
	if c.fullMask() {
		dst = dst[:c.width]
		a = a[:c.width]
		b = b[:c.width]
		for lane := range dst {
			dst[lane] = a[lane] + b[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = a[lane] + b[lane]
			}
		}
	}
	c.chargeALU1()
}

// AddF32 performs dst[lane] = a[lane] + b[lane] for float registers (one
// instruction). dst may alias a or b.
func (c *WarpCtx) AddF32(dst, a, b []float32) {
	if c.fullMask() {
		dst = dst[:c.width]
		a = a[:c.width]
		b = b[:c.width]
		for lane := range dst {
			dst[lane] = a[lane] + b[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = a[lane] + b[lane]
			}
		}
	}
	c.chargeALU1()
}

// MulAddF32 performs acc[lane] += a[lane] * b[lane] on every active lane —
// one fused multiply-add instruction, the SpMV/PageRank inner step.
func (c *WarpCtx) MulAddF32(acc, a, b []float32) {
	if c.fullMask() {
		acc = acc[:c.width]
		a = a[:c.width]
		b = b[:c.width]
		for lane := range acc {
			acc[lane] += a[lane] * b[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				acc[lane] += a[lane] * b[lane]
			}
		}
	}
	c.chargeALU1()
}

// OrI32 performs dst[lane] = a[lane] | b[lane] on every active lane (one
// instruction). dst may alias a or b.
func (c *WarpCtx) OrI32(dst, a, b []int32) {
	if c.fullMask() {
		dst = dst[:c.width]
		a = a[:c.width]
		b = b[:c.width]
		for lane := range dst {
			dst[lane] = a[lane] | b[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = a[lane] | b[lane]
			}
		}
	}
	c.chargeALU1()
}

// AndNotI32 performs dst[lane] = a[lane] &^ b[lane] on every active lane
// (one instruction) — the frontier-minus-visited step of bitmask BFS.
func (c *WarpCtx) AndNotI32(dst, a, b []int32) {
	if c.fullMask() {
		dst = dst[:c.width]
		a = a[:c.width]
		b = b[:c.width]
		for lane := range dst {
			dst[lane] = a[lane] &^ b[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = a[lane] &^ b[lane]
			}
		}
	}
	c.chargeALU1()
}
