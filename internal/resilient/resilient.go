// Package resilient wraps the device graph algorithms with fault tolerance:
// bounded retry with exponential backoff on transient kernel faults,
// checkpoint/restore of device buffers between the rounds of every
// algorithm-table entry's run (BFS levels, Bellman-Ford rounds, PageRank
// sweeps, SCC regions, BC sources, single launches), and graceful
// degradation to the matching CPU oracle once the retry budget is exhausted
// or the fault is permanent (device loss, deterministic kernel bugs).
// Degraded results are tagged so callers can tell a GPU answer from an
// oracle answer.
package resilient

import (
	"errors"
	"sync/atomic"
	"time"

	"maxwarp/internal/simt"
	"maxwarp/internal/xrand"
)

// Policy bounds how hard the runner tries before degrading to the CPU
// oracle.
type Policy struct {
	// MaxRetries is the per-step transient retry budget (default 3). A
	// successful step resets the counter: only consecutive failures of the
	// same step exhaust it.
	MaxRetries int
	// BaseBackoff is the sleep before the first retry (default 1ms); it
	// doubles per consecutive failure up to MaxBackoff (default 50ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep is the backoff clock, injectable for tests (default
	// time.Sleep).
	Sleep func(time.Duration)
	// Launch supervises every kernel launch made under this policy
	// (per-launch deadline and progress callback).
	Launch simt.LaunchOpts
	// NoFallback disables CPU-oracle degradation: exhausting the retry
	// budget returns the last error instead of a Degraded result.
	NoFallback bool
	// JitterSeed seeds the full-jitter randomization of backoff sleeps:
	// each sleep is drawn uniformly from [0, backoff(try)] so that a pool
	// of retry loops hammering one recovering device desynchronizes
	// instead of retrying in lockstep (thundering herd). Zero derives a
	// distinct deterministic seed per retry loop from a process-wide
	// counter; set non-zero for a reproducible schedule in tests.
	JitterSeed uint64
	// NoJitter disables jitter: sleeps follow the exact exponential curve.
	NoJitter bool

	// rng drives the jitter; withDefaults seeds it lazily so Policy
	// literals keep working.
	rng *xrand.Rand
}

// jitterCounter derives distinct default jitter seeds for concurrent retry
// loops that left JitterSeed at zero.
var jitterCounter atomic.Uint64

func (p Policy) withDefaults() Policy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if !p.NoJitter && p.rng == nil {
		seed := p.JitterSeed
		if seed == 0 {
			// Offset so seed 0 never collides with an explicit JitterSeed.
			seed = 0x9e3779b97f4a7c15 ^ jitterCounter.Add(1)
		}
		p.rng = xrand.New(seed)
	}
	return p
}

// backoff returns the sleep before retry number try (1-based).
func (p Policy) backoff(try int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < try; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// sleepFor returns the actual sleep before retry number try (1-based):
// the exponential backoff cap with full jitter applied unless NoJitter.
// Call only after withDefaults.
func (p Policy) sleepFor(try int) time.Duration {
	d := p.backoff(try)
	if p.NoJitter || p.rng == nil || d <= 0 {
		return d
	}
	return time.Duration(p.rng.Uint64n(uint64(d) + 1))
}

// FaultRecord logs one fault the runner observed and recovered from (or gave
// up on).
type FaultRecord struct {
	// Iteration is the algorithm iteration (BFS level, PageRank sweep) the
	// fault interrupted.
	Iteration int
	// Attempt is the 1-based attempt number of that step.
	Attempt int
	// Err is the launch error, with the typed *simt.KernelFault (or
	// sentinel) in its chain.
	Err error
}

// Outcome describes how a resilient run completed.
type Outcome struct {
	// Degraded is true when the device computation was abandoned and the
	// result comes from the CPU oracle.
	Degraded bool
	// Retries is the total number of retried steps across the run.
	Retries int
	// Faults logs every fault observed, in order.
	Faults []FaultRecord
	// FallbackCause is the error that forced degradation (nil unless
	// Degraded).
	FallbackCause error
}

// permanent reports whether err cannot be cured by retrying the same step:
// device loss poisons every future launch, and a deterministic kernel fault
// (OOB, panic) will recur on identical inputs. Injected bit-flips and aborts
// are transient by construction.
func permanent(err error) bool {
	if errors.Is(err, simt.ErrDeviceLost) {
		return true
	}
	return !simt.IsTransient(err)
}
