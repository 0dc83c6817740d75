package simt

import "testing"

func policyStats(t *testing.T, policy string) *LaunchStats {
	t.Helper()
	cfg := testConfig()
	cfg.SchedulerPolicy = policy
	d := MustNewDevice(cfg)
	buf := d.AllocI32("buf", 4096)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		idx := w.VecI32()
		v := w.VecI32()
		for i := 0; i < 8; i++ {
			w.Apply(1, func(l int) {
				idx[l] = (lane[l]*9 + int32(i*131) + int32(w.GlobalWarpID())*17) % 4096
			})
			w.LoadI32(buf, idx, v)
			w.Apply(2, func(l int) { v[l] = v[l]*3 + 1 })
			w.StoreI32(buf, idx, v)
		}
	}
	s, err := d.Launch(Grid1D(2048, 64), k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchedulerPolicies(t *testing.T) {
	gto := policyStats(t, "gto")
	lrr := policyStats(t, "lrr")
	def := policyStats(t, "")
	// Default is gto.
	if def.Cycles != gto.Cycles {
		t.Fatalf("default policy (%d cycles) differs from gto (%d)", def.Cycles, gto.Cycles)
	}
	// Both policies execute the same work.
	if gto.Instructions != lrr.Instructions || gto.MemTxns != lrr.MemTxns {
		t.Fatalf("policies did different work: gto %v lrr %v", gto, lrr)
	}
	// Timing may differ but must be in the same ballpark (same machine, same
	// work, only issue order changes).
	ratio := float64(lrr.Cycles) / float64(gto.Cycles)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("policy cycle ratio %.2f out of plausible range", ratio)
	}
	// Each policy's issue order, pinned exactly: a scheduler change that
	// moves either one's picks moves these.
	for _, c := range []struct {
		policy                            string
		s                                 *LaunchStats
		cycles, stallCycles, instructions int64
	}{
		{"gto", gto, 14607, 55856, 2560},
		{"lrr", lrr, 14651, 56032, 2560},
	} {
		if c.s.Cycles != c.cycles || c.s.StallCycles != c.stallCycles || c.s.Instructions != c.instructions {
			t.Errorf("%s: Cycles %d, StallCycles %d, Instructions %d; want %d, %d, %d", c.policy,
				c.s.Cycles, c.s.StallCycles, c.s.Instructions, c.cycles, c.stallCycles, c.instructions)
		}
	}
}

func TestSchedulerPolicyDeterministic(t *testing.T) {
	a := policyStats(t, "lrr")
	b := policyStats(t, "lrr")
	if a.Cycles != b.Cycles || a.StallCycles != b.StallCycles {
		t.Fatal("lrr scheduling not deterministic")
	}
}

func TestSchedulerPolicyValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SchedulerPolicy = "fifo"
	if err := cfg.Validate(); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
