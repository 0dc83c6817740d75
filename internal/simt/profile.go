package simt

import "math/bits"

// Per-launch profiling: optional cycle/latency histograms collected by the
// scheduler alongside the flat LaunchStats counters. Like every other
// counter, histograms accumulate in per-SM shards and merge bucket-wise at
// launch end, so the totals are bit-identical for every ParallelSMs setting.
// Profiling is off unless requested (Device.SetProfiling or
// LaunchOpts.Profile); the hot path then pays one nil-check per event.

// ProfileBuckets is the bucket count of a ProfileHist.
const ProfileBuckets = 20

// ProfileHist is a power-of-two-bucketed histogram of non-negative int64
// samples: bucket 0 counts zeros, bucket i >= 1 counts samples in
// [2^(i-1), 2^i - 1], and the last bucket absorbs everything larger.
type ProfileHist struct {
	Buckets [ProfileBuckets]int64
	Count   int64
	Sum     int64
}

// Observe records one sample (negatives clamp to zero).
func (h *ProfileHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= ProfileBuckets {
		b = ProfileBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += v
}

// BucketUpperBound returns the inclusive upper bound of bucket i, or -1 for
// the unbounded last bucket.
func BucketUpperBound(i int) int64 {
	if i < 0 || i >= ProfileBuckets-1 {
		return -1
	}
	return int64(1)<<uint(i) - 1
}

func (h *ProfileHist) add(o *ProfileHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// LaunchProfile holds the optional per-launch histograms. All four are
// order-independent sums over per-SM shards, so they are deterministic
// across host execution modes.
type LaunchProfile struct {
	// InstrLatency buckets each issued instruction's result latency.
	InstrLatency ProfileHist
	// MemTxns buckets coalesced transactions per global-memory instruction
	// (the per-instruction view of the coalescing quality TxnsPerMemOp
	// averages away).
	MemTxns ProfileHist
	// StallWait buckets the idle gaps the scheduler had to bridge when no
	// resident warp was ready to issue.
	StallWait ProfileHist
	// WarpBusy buckets per-warp busy cycles at warp completion — the
	// distribution behind the workload-imbalance CV.
	WarpBusy ProfileHist
}

func (p *LaunchProfile) add(o *LaunchProfile) {
	p.InstrLatency.add(&o.InstrLatency)
	p.MemTxns.add(&o.MemTxns)
	p.StallWait.add(&o.StallWait)
	p.WarpBusy.add(&o.WarpBusy)
}

// Clone returns a deep copy.
func (p *LaunchProfile) Clone() *LaunchProfile {
	c := *p
	return &c
}
