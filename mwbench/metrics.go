package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the benchmark's
// schema; BENCHMARK.json repeats them and a test keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are the metrics a user of maxwarp sees, printed by every
// workload with tracing off.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"mean_ms", "ms", "lower"},
		{"p95_ms", "ms", "lower"},
		{"sim_cycles", "cycles", "lower"},
		{"rss_mb", "MB", "lower"},
		{"setup_s", "s", "lower"},
	}
}

// allItems are the replay items every traced run reports per layer.
func allItems() []string {
	var items []string
	for _, it := range serveItems {
		items = append(items, it.name)
	}
	for _, p := range cliProbes {
		items = append(items, p.name)
	}
	return items
}

// perLayerDefs are the metrics of the traced run, grouped by module.
func perLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	perItem := func(items []string, name, unit, better string) {
		for _, it := range items {
			add(name+"."+it, unit, better)
		}
	}
	var serveNames []string
	for _, it := range serveItems {
		serveNames = append(serveNames, it.name)
	}
	items := allItems()

	add("serve.queue_wait_ms.p50", "ms", "lower")
	add("serve.queue_wait_ms.p95", "ms", "lower")
	add("serve.overhead_ms.p50", "ms", "lower")
	add("serve.cache_hit_ratio", "ratio", "higher")
	add("serve.shed_ratio", "ratio", "lower")
	add("serve.degraded_ratio", "ratio", "lower")
	add("serve.mutate_ms.p50", "ms", "lower")
	add("serve.invalidated_per_mutate", "count", "lower")
	perItem(serveNames, "serve.exec_ms", "ms", "lower")
	add("load.send_lag_ms.p95", "ms", "lower")

	add("resilient.retries_per_query", "count", "lower")
	perItem(items, "resilient.steps", "count", "lower")
	perItem(items, "resilient.checkpoint_ms", "ms", "lower")

	add("gpualgo.upload_ms", "ms", "lower")
	add("gpualgo.upload_mb", "MB", "lower")
	add("gpualgo.uploads_per_query", "count", "lower")
	perItem(items, "gpualgo.step_ms", "ms", "lower")
	perItem(items, "gpualgo.launches_per_step", "count", "lower")

	add("simt.empty_launch_us", "us", "lower")
	add("simt.empty_launch_hook_us", "us", "lower")
	perItem(items, "simt.ns_per_warp_instr", "ns", "lower")
	perItem(items, "simt.launch_share", "ratio", "lower")

	perItem(items, "sim.cycles", "cycles", "lower")
	perItem(items, "sim.instructions", "count", "lower")
	perItem(items, "sim.stall_ratio", "ratio", "lower")
	perItem(items, "sim.full_mask_ratio", "ratio", "higher")
	perItem(items, "sim.txns_per_memop", "ratio", "lower")
	perItem(items, "sim.useful_util", "ratio", "higher")
	perItem(items, "sim.smfinish_cv", "ratio", "lower")
	perItem(items, "sim.atomic_serial", "count", "lower")

	add("graph.build_ms.wiki", "ms", "lower")
	add("graph.build_ms.road", "ms", "lower")
	add("graph.build_ms.lj", "ms", "lower")
	add("graph.sym_ms", "ms", "lower")
	add("graph.source_ms", "ms", "lower")
	add("graph.compact_ms", "ms", "lower")

	add("trace.mean_ms", "ms", "lower")
	add("trace.p95_ms", "ms", "lower")
	add("trace.replay_exec_dev", "ratio", "lower")
	return defs
}

// metricValue is one reported value in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unbounded stands in for a percentile that fell on a failed operation
// (counted as infinitely slow), since JSON has no infinity.
const unbounded = 1e12

// collect builds the result's metric map from values, with the units of
// defs. A missing value is a bug in the benchmark.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("mwbench: metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 0) || v > unbounded {
			v = unbounded
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("mwbench: metric %s is NaN", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place);
// +Inf entries stand for failed operations.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianTime runs f reps times and returns its median wall time in ms.
func medianTime(reps int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
