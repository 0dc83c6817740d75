package serve

import (
	"maxwarp/internal/obs"
	"maxwarp/internal/resilient"
)

// serverMetrics is every counter, gauge, and histogram the daemon exposes
// at /metrics. All of them are obs host-side metrics: safe for concurrent
// handlers and workers, rendered through the same report pipeline as the
// simulator's kernel metrics.
type serverMetrics struct {
	reg *obs.HostMetrics

	// requests counts completed requests by algo and HTTP status code.
	requests *obs.HostCounterVec
	// shed counts load-shed requests by reason (queue_full, quota,
	// deadline, draining).
	shed *obs.HostCounterVec
	// degraded counts requests answered by the CPU oracle, by reason
	// ("fault" = this request's device run failed permanently, "pool" =
	// every device breaker was open).
	degraded *obs.HostCounterVec
	// retries totals transient-fault retries across all device runs.
	retries *obs.HostCounter
	// faults counts observed kernel faults by class.
	faults *obs.HostCounterVec
	// cacheHits / cacheMisses drive the cache hit-rate gauge.
	cacheHits, cacheMisses *obs.HostCounter
	// mutations counts applied streaming-mutation batches by graph.
	mutations *obs.HostCounterVec
	// mutatedEdges totals effective edge inserts and deletes applied.
	mutatedEdges *obs.HostCounter
	// cacheInvalidated totals result-cache entries dropped by mutations.
	cacheInvalidated *obs.HostCounter
	// breakerTransitions counts breaker state changes by device and target
	// state.
	breakerTransitions *obs.HostCounterVec
	// breakerState is a per-device gauge: 0 closed, 1 half-open, 2 open.
	breakerState *obs.HostGaugeVec
	// latency is end-to-end request latency in microseconds, by algo.
	latency *obs.HostHistVec
	// queueWait is admission-queue wait in microseconds.
	queueWait *obs.HostHist
	// simCycles totals simulated device cycles by device.
	simCycles *obs.HostCounterVec
	// recycles counts device recreations (periodic recycling plus breaker
	// probes replacing a lost device).
	recycles *obs.HostCounter
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewHostMetrics()
	m := &serverMetrics{
		reg:      reg,
		requests: reg.CounterVec("maxwarp_serve_requests_total", "completed requests by algorithm and HTTP status", "algo", "code"),
		shed:     reg.CounterVec("maxwarp_serve_shed_total", "load-shed requests by reason", "reason"),
		degraded: reg.CounterVec("maxwarp_serve_degraded_total", "requests answered by the CPU oracle, by reason", "reason"),
		retries:  reg.Counter("maxwarp_serve_retries_total", "transient-fault retries across device runs"),
		faults:   reg.CounterVec("maxwarp_serve_faults_total", "kernel faults observed by device runs, by class", "kind"),

		cacheHits:   reg.Counter("maxwarp_serve_cache_hits_total", "result-cache hits"),
		cacheMisses: reg.Counter("maxwarp_serve_cache_misses_total", "result-cache misses"),

		mutations:        reg.CounterVec("maxwarp_serve_mutations_total", "applied streaming-mutation batches by graph", "graph"),
		mutatedEdges:     reg.Counter("maxwarp_serve_mutated_edges_total", "effective edge inserts and deletes applied"),
		cacheInvalidated: reg.Counter("maxwarp_serve_cache_invalidated_total", "result-cache entries dropped by graph mutations"),

		breakerTransitions: reg.CounterVec("maxwarp_serve_breaker_transitions_total", "circuit-breaker state changes", "device", "to"),
		breakerState:       reg.GaugeVec("maxwarp_serve_breaker_state", "per-device breaker state: 0 closed, 1 half-open, 2 open", "device"),

		latency:   reg.HistogramVec("maxwarp_serve_latency_us", "end-to-end request latency (microseconds)", "algo"),
		queueWait: reg.Histogram("maxwarp_serve_queue_wait_us", "admission-queue wait (microseconds)"),
		simCycles: reg.CounterVec("maxwarp_serve_sim_cycles_total", "simulated device cycles by device", "device"),
		recycles:  reg.Counter("maxwarp_serve_device_recycles_total", "device recreations (recycling and post-loss probes)"),
	}
	reg.Gauge("maxwarp_serve_queue_depth", "requests waiting in the admission queue", func() float64 {
		return float64(len(s.queue))
	})
	reg.Gauge("maxwarp_serve_healthy_devices", "devices whose breaker is closed", func() float64 {
		return float64(s.healthyDevices())
	})
	reg.Gauge("maxwarp_serve_cache_hit_ratio", "result-cache hit ratio since start", func() float64 {
		hits, misses := float64(m.cacheHits.Value()), float64(m.cacheMisses.Value())
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	})
	reg.Gauge("maxwarp_serve_draining", "1 while the server is draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	return m
}

// outcome counts a device run's retries and faults (nil counts nothing).
func (m *serverMetrics) outcome(out *resilient.Outcome) {
	if out == nil {
		return
	}
	m.retries.Add(int64(out.Retries))
	for _, f := range out.Faults {
		m.faults.With(faultClass(f.Err)).Inc()
	}
}
