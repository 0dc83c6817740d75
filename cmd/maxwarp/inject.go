package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
)

// parseFaultPlan parses the -inject flag: a comma-separated list of
// key=value settings describing a seeded fault-injection schedule.
//
//	seed=N       RNG seed for fault scheduling (default 1)
//	abort=N      abort every Nth launch (transient)
//	bitflip=N    flip one bit in a device buffer every Nth launch (transient)
//	buffers=a|b  restrict bit-flip targets to the named buffers
//	loss=N       lose the device after N cumulative cycles (permanent)
//	maxfaults=N  cap the number of injected transient faults
//
// Example: -inject abort=3,bitflip=5,buffers=bfs.levels,seed=7
func parseFaultPlan(spec string) (*simt.FaultPlan, error) {
	plan := &simt.FaultPlan{Seed: 1}
	any := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-inject: %q is not key=value", part)
		}
		switch key {
		case "buffers":
			plan.Buffers = strings.Split(val, "|")
			for _, b := range plan.Buffers {
				if b == "" {
					return nil, fmt.Errorf("-inject: empty buffer name in %q", part)
				}
			}
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-inject: bad value in %q", part)
		}
		switch key {
		case "seed":
			plan.Seed = uint64(n)
		case "abort":
			plan.AbortEvery = int(n)
			any = true
		case "bitflip":
			plan.BitFlipEvery = int(n)
			any = true
		case "loss":
			plan.DeviceLossAfterCycles = n
			any = true
		case "maxfaults":
			plan.MaxFaults = int(n)
		default:
			return nil, fmt.Errorf("-inject: unknown key %q (want seed, abort, bitflip, buffers, loss, maxfaults)", key)
		}
	}
	if !any {
		return nil, fmt.Errorf("-inject: %q schedules no faults (set abort=, bitflip=, or loss=)", spec)
	}
	return plan, nil
}

// printOutcome reports how a resilient run fared.
func printOutcome(w io.Writer, out resilient.Outcome) {
	engine := "gpu"
	if out.Degraded {
		engine = "cpu oracle (degraded)"
	}
	fmt.Fprintf(w, "engine   %s   retries %d   faults %d\n", engine, out.Retries, len(out.Faults))
	for _, f := range out.Faults {
		fmt.Fprintf(w, "  fault  iter %d attempt %d: %v\n", f.Iteration, f.Attempt, f.Err)
	}
	if out.FallbackCause != nil {
		fmt.Fprintf(w, "  cause  %v\n", out.FallbackCause)
	}
}

// runInjected is the algo subcommand's resilient path: the table entry runs
// under the parsed fault plan and degrades to its oracle.
func runInjected(dev *simt.Device, a *gpualgo.Algorithm, in gpualgo.Input, opts gpualgo.Options,
	spec string, retries int, header string, k int, dynamic bool) error {
	plan, err := parseFaultPlan(spec)
	if err != nil {
		return err
	}
	if retries < 1 {
		// resilient.Policy treats 0 as "use the default budget", so an
		// explicit 0 here would silently retry anyway; reject it instead.
		return fmt.Errorf("-retries must be >= 1 (got %d)", retries)
	}
	dev.SetFaultPlan(plan)
	res, out, err := resilient.Execute(dev, a, in, opts, resilient.Policy{MaxRetries: retries})
	if err != nil {
		return err
	}

	cfg := dev.Config()
	fmt.Println(header)
	note := res.Note
	if a.Summarize != nil {
		note = a.Summarize(res.Value).Note
	}
	fmt.Printf("kernel   %s  K=%d dynamic=%v  inject=%s", a.Name, k, dynamic, spec)
	if note != "" {
		fmt.Printf("  [%s]", note)
	}
	fmt.Println()
	printOutcome(os.Stdout, *out)
	if !out.Degraded {
		fmt.Printf("rounds   %d\n", res.Rounds)
		fmt.Printf("cycles   %d (%.3f ms at %.1f GHz)\n", res.Stats.Cycles, res.Stats.TimeMS(cfg.ClockGHz), cfg.ClockGHz)
	}
	return nil
}
