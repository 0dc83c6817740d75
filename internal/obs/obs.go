// Package obs is the parallel-safe observability layer for the SIMT
// simulator: per-SM sharded event counters and a bounded sampling tracer
// that keep working — without locks on the hot path and without forcing the
// sequential fallback — while Config.ParallelSMs runs every SM on its own
// host goroutine.
//
// The determinism story is inherited from the scheduler: each simulated SM's
// execution (its clock sequence, its instruction stream, its stats shard) is
// bit-identical across host execution modes, and within one SM exactly one
// goroutine runs at a time with channel handoffs providing happens-before.
// So state sharded by SM id needs no synchronization, and any deterministic
// merge of the shards — ascending SM id for counters, a stable sort for
// trace events — yields output that is bit-identical across runs and across
// ParallelSMs settings.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"maxwarp/internal/report"
)

// shardPad pads each counter shard to one 64-byte cache line so per-SM
// increments from concurrent host goroutines do not false-share. The
// 8-goroutine contention microbenchmark (contention_test.go, numbers in
// EXPERIMENTS.md) measured two-line padding at parity with one.
const shardPad = 8 // 8 × int64 = 64 bytes

type counterShard struct {
	v [shardPad]int64
}

// Counter is one named event counter with per-SM shards plus a host shard
// for increments made outside any SM (e.g. between launches). Add is
// lock-free; Value merges shards in ascending id on read.
type Counter struct {
	name  string
	help  string
	shard []counterShard // index NumSMs is the host shard
}

// Add increments the counter's shard for the given SM. Safe to call from
// per-SM host goroutines concurrently; calls for the same SM must come from
// that SM's goroutine (which the simulator guarantees for kernel code).
func (c *Counter) Add(sm int, delta int64) {
	c.shard[c.index(sm)].v[0] += delta
}

// AddHost increments the host shard (for accounting done outside kernels,
// e.g. per-iteration counts on the launching goroutine).
func (c *Counter) AddHost(delta int64) {
	c.shard[len(c.shard)-1].v[0] += delta
}

// Value merges the shards (ascending SM id, host shard last) and returns the
// total. Sums are order-independent, so the total is deterministic however
// the shards were filled.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shard {
		total += c.shard[i].v[0]
	}
	return total
}

// PerSM returns a copy of the per-SM shard values (the host shard is
// excluded).
func (c *Counter) PerSM() []int64 {
	out := make([]int64, len(c.shard)-1)
	for i := range out {
		out[i] = c.shard[i].v[0]
	}
	return out
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Help returns the counter's description.
func (c *Counter) Help() string { return c.help }

// Reset zeroes every shard.
func (c *Counter) Reset() {
	for i := range c.shard {
		c.shard[i].v[0] = 0
	}
}

func (c *Counter) index(sm int) int {
	if sm < 0 || sm >= len(c.shard)-1 {
		return len(c.shard) - 1
	}
	return sm
}

// Metrics is a registry of sharded counters for one device (shard count =
// NumSMs). Registration takes a lock; the counters themselves are hot-path
// lock-free.
type Metrics struct {
	numSMs int

	mu       sync.Mutex
	counters []*Counter
	byName   map[string]*Counter
}

// NewMetrics creates a registry whose counters have numSMs shards (plus one
// host shard each).
func NewMetrics(numSMs int) *Metrics {
	if numSMs < 1 {
		numSMs = 1
	}
	return &Metrics{numSMs: numSMs, byName: make(map[string]*Counter)}
}

// Counter returns the registered counter with that name, creating it on
// first use. Registration is idempotent: the help string of the first
// registration wins.
func (m *Metrics) Counter(name, help string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.byName[name]; ok {
		return c
	}
	if err := report.CheckMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	c := &Counter{name: name, help: help, shard: make([]counterShard, m.numSMs+1)}
	m.byName[name] = c
	m.counters = append(m.counters, c)
	return c
}

// Lookup returns the counter with that name, or nil.
func (m *Metrics) Lookup(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name]
}

// NumSMs returns the shard count the registry was built for.
func (m *Metrics) NumSMs() int { return m.numSMs }

// Counters returns the registered counters sorted by name (a deterministic
// snapshot independent of registration order).
func (m *Metrics) Counters() []*Counter {
	m.mu.Lock()
	out := append([]*Counter(nil), m.counters...)
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Reset zeroes every registered counter.
func (m *Metrics) Reset() {
	for _, c := range m.Counters() {
		c.Reset()
	}
}

// Values returns a name→total snapshot of every registered counter.
func (m *Metrics) Values() map[string]int64 {
	out := make(map[string]int64)
	for _, c := range m.Counters() {
		out[c.name] = c.Value()
	}
	return out
}
