package obs

import (
	"fmt"
	"strconv"

	"maxwarp/internal/report"
	"maxwarp/internal/simt"
)

// Exporters. The families produced here deliberately exclude the host-mode
// fields (ParallelSMs, SequentialFallback): everything exported is
// bit-identical across host execution modes, so metric output can be diffed
// across runs regardless of how the host scheduled the SMs.

// Families renders the registry's counters as Prometheus metric families:
// one counter family per registered name with the merged total, plus a
// per-SM breakdown labeled sm="<id>" when perSM is set.
func (m *Metrics) Families(perSM bool) []report.MetricFamily {
	var fams []report.MetricFamily
	for _, c := range m.Counters() {
		f := report.MetricFamily{
			Name:    c.Name(),
			Help:    c.Help(),
			Type:    "counter",
			Samples: []report.Sample{{Value: float64(c.Value())}},
		}
		if perSM {
			for sm, v := range c.PerSM() {
				f.Samples = append(f.Samples, report.Sample{
					Labels: []report.Label{{Name: "sm", Value: strconv.Itoa(sm)}},
					Value:  float64(v),
				})
			}
		}
		fams = append(fams, f)
	}
	return fams
}

// StatsFamilies renders a launch's merged counters (and its histograms when
// profiling was on) as Prometheus metric families under the given name
// prefix (e.g. "maxwarp"). Host-mode fields and the per-warp vectors are
// omitted.
func StatsFamilies(prefix string, s *simt.LaunchStats) []report.MetricFamily {
	c := func(name, help string, v int64) report.MetricFamily {
		return report.MetricFamily{
			Name: prefix + "_" + name, Help: help, Type: "counter",
			Samples: []report.Sample{{Value: float64(v)}},
		}
	}
	g := func(name, help string, v float64) report.MetricFamily {
		return report.MetricFamily{
			Name: prefix + "_" + name, Help: help, Type: "gauge",
			Samples: []report.Sample{{Value: v}},
		}
	}
	fams := []report.MetricFamily{
		c("cycles_total", "Simulated cycles.", s.Cycles),
		c("stall_cycles_total", "Cycles an SM had resident warps but none ready.", s.StallCycles),
		c("instructions_total", "Warp instructions issued.", s.Instructions),
		c("issue_slots_total", "Pipeline slots consumed.", s.IssueSlots),
		c("active_lane_ops_total", "Active lanes summed over instructions.", s.ActiveLaneOps),
		c("useful_lane_ops_total", "Non-redundant active lanes.", s.UsefulLaneOps),
		c("lane_slots_total", "Lane capacity offered by issued instructions.", s.LaneSlots),
		c("mem_ops_total", "Global-memory warp instructions.", s.MemOps),
		c("mem_txns_total", "Coalesced global-memory transactions.", s.MemTxns),
		c("mem_bytes_total", "Global-memory bytes moved.", s.MemBytes),
		c("atomic_ops_total", "Atomic warp instructions.", s.AtomicOps),
		c("atomic_serial_total", "Extra same-address atomic serialization steps.", s.AtomicSerial),
		c("cache_hits_total", "Read-only-cache hits.", s.CacheHits),
		c("cache_misses_total", "Read-only-cache misses.", s.CacheMisses),
		c("shared_ops_total", "Shared-memory warp instructions.", s.SharedOps),
		c("shared_bank_conflicts_total", "Shared-memory bank conflicts.", s.SharedBankConflicts),
		c("divergent_branches_total", "If points where both paths had active lanes.", s.DivergentBranches),
		c("barriers_total", "Block barrier releases.", s.Barriers),
		c("warps_launched_total", "Warps launched.", int64(s.WarpsLaunched)),
		c("blocks_launched_total", "Blocks launched.", int64(s.BlocksLaunched)),
		g("simd_utilization", "Active-lane occupancy in [0,1].", s.SIMDUtilization()),
		g("useful_utilization", "Non-redundant lane occupancy in [0,1].", s.UsefulUtilization()),
		g("txns_per_mem_op", "Transactions per global-memory instruction.", s.TxnsPerMemOp()),
		g("warp_imbalance_cv", "Coefficient of variation of per-warp busy cycles.", s.WarpImbalanceCV()),
	}
	if s.Profile != nil {
		p := s.Profile
		fams = append(fams,
			histFamily(prefix+"_instr_latency_cycles", "Result latency per issued instruction.", &p.InstrLatency),
			histFamily(prefix+"_mem_txns_per_op", "Coalesced transactions per global-memory instruction.", &p.MemTxns),
			histFamily(prefix+"_stall_wait_cycles", "Idle gap bridged when no warp was ready.", &p.StallWait),
			histFamily(prefix+"_warp_busy_cycles", "Per-warp busy cycles at completion.", &p.WarpBusy),
		)
	}
	return fams
}

// histFamily renders a ProfileHist as a Prometheus histogram: cumulative
// le-labeled buckets plus _sum and _count pseudo-samples folded into one
// family (our renderer keeps them as labeled samples of the same name, the
// shape scrape-side tooling expects for fixed-bucket histograms).
func histFamily(name, help string, h *simt.ProfileHist) report.MetricFamily {
	f := report.MetricFamily{Name: name, Help: help, Type: "histogram"}
	var cum int64
	for i := 0; i < simt.ProfileBuckets; i++ {
		cum += h.Buckets[i]
		le := "+Inf"
		if ub := simt.BucketUpperBound(i); ub >= 0 {
			le = strconv.FormatInt(ub, 10)
		}
		f.Samples = append(f.Samples, report.Sample{
			Labels: []report.Label{{Name: "le", Value: le}},
			Value:  float64(cum),
		})
	}
	f.Samples = append(f.Samples,
		report.Sample{Labels: []report.Label{{Name: "stat", Value: "sum"}}, Value: float64(h.Sum)},
		report.Sample{Labels: []report.Label{{Name: "stat", Value: "count"}}, Value: float64(h.Count)},
	)
	return f
}

// ExportPromText renders launch stats plus (optionally) a metrics registry
// as one Prometheus text document.
func ExportPromText(prefix string, s *simt.LaunchStats, m *Metrics, perSM bool) (string, error) {
	fams := StatsFamilies(prefix, s)
	if m != nil {
		fams = append(fams, m.Families(perSM)...)
	}
	text, err := report.PromText(fams)
	if err != nil {
		return "", fmt.Errorf("obs: %w", err)
	}
	return text, nil
}
