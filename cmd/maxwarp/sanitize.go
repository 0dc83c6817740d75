package main

import (
	"flag"
	"fmt"
	"strconv"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/report"
	"maxwarp/internal/sanitize"
	"maxwarp/internal/simt"
)

// armSanitizer attaches a fresh dynamic sanitizer to dev when on is set and
// returns it (nil otherwise). The device config must also have Sanitize set
// for launches to feed it.
func armSanitizer(dev *simt.Device, on bool) *sanitize.Sanitizer {
	if !on {
		return nil
	}
	san := sanitize.NewSanitizer()
	dev.SetSanitizer(san)
	return san
}

// reportSanitizer prints the sanitizer's findings after a run and returns an
// error when any error-severity hazard was detected, so -sanitize runs exit
// non-zero exactly like a failed memcheck would. infoOnlyQuiet suppresses
// the table when every finding is informational (benign races, stale reads).
func reportSanitizer(san *sanitize.Sanitizer, infoOnlyQuiet bool) error {
	if san == nil {
		return nil
	}
	diags := san.Diagnostics()
	if len(diags) == 0 {
		fmt.Println("sanitizer  clean — no hazards detected")
		return nil
	}
	nerr := len(san.Errors())
	if nerr == 0 && infoOnlyQuiet {
		fmt.Printf("sanitizer  clean — %d informational finding(s) (benign races / stale reads)\n", len(diags))
		return nil
	}
	fmt.Println()
	fmt.Print(san.Table().Text())
	if nerr > 0 {
		return fmt.Errorf("sanitizer: %d error-severity finding(s)", nerr)
	}
	return nil
}

// cmdSanitize runs one kernel (or the whole suite) under the dynamic
// sanitizer — the simulator's cuda-memcheck/racecheck/synccheck analogue —
// and reports every hazard. Exit status is non-zero iff any error-severity
// finding survives, so it slots into CI next to `kernelcheck`.
func cmdSanitize(args []string) error {
	fs := flag.NewFlagSet("sanitize", flag.ContinueOnError)
	name := fs.String("name", "all", "kernel to check (see 'algo -name'), or 'all' for the full suite")
	preset := fs.String("preset", "", "workload preset name (see 'maxwarp list')")
	file := fs.String("graph", "", "graph file (.bin or edge list)")
	scale := fs.Int("scale", 10, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed")
	k := fs.Int("k", 4, "virtual warp width (1 = thread-per-vertex baseline)")
	dynamic := fs.Bool("dynamic", false, "dynamic workload distribution")
	coreK := fs.Int("corek", defaultCoreK, "k for the kcore kernel")
	iters := fs.Int("iters", 5, "iterations for pagerank")
	samples := fs.Int("samples", 2, "landmark samples for closeness")
	info := fs.Bool("info", false, "list informational findings (benign races, stale reads), not just errors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, gname, fileWeights, err := loadWorkloadWeighted(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	algos := gpualgo.Algorithms()
	if *name != "all" {
		a, err := lookupKernel(*name)
		if err != nil {
			return err
		}
		algos = []gpualgo.Algorithm{*a}
	}
	opts := gpualgo.Options{K: *k, Dynamic: *dynamic}
	params := algoParams{seed: *seed, coreK: *coreK, iters: *iters, samples: *samples, fileWeights: fileWeights}
	src := graph.LargestOutComponentSeed(g)

	summary := &report.Table{
		ID:      "SANITIZE",
		Title:   fmt.Sprintf("kernel sanitizer sweep — %s (%s), K=%d", gname, graph.Stats(g), *k),
		Columns: []string{"kernel", "rounds", "errors", "info", "verdict"},
	}
	totalErrs := 0
	for _, a := range algos {
		// Fresh device and sanitizer per kernel: sanitizer state is keyed by
		// buffer identity and persists across launches, so isolation keeps
		// each kernel's report self-contained.
		dcfg := simt.DefaultConfig()
		dcfg.Sanitize = true
		dev, err := simt.NewDevice(dcfg)
		if err != nil {
			return err
		}
		san := armSanitizer(dev, true)
		in, err := algoInput(&a, g, src, params)
		if err != nil {
			return err
		}
		run, err := a.Run(dev, in, opts)
		if err != nil {
			return fmt.Errorf("sanitize %s: %w", a.Name, err)
		}
		errs := san.Errors()
		ninfo := len(san.Diagnostics()) - len(errs)
		verdict := "ok"
		if len(errs) > 0 {
			verdict = "FAIL"
			totalErrs += len(errs)
		}
		summary.AddRow(a.Name, strconv.Itoa(run.Rounds), strconv.Itoa(len(errs)), strconv.Itoa(ninfo), verdict)
		if len(errs) > 0 || (*info && ninfo > 0) {
			fmt.Printf("── %s ──\n", a.Name)
			fmt.Print(san.Table().Text())
			fmt.Println()
		}
	}
	fmt.Print(summary.Text())
	if totalErrs > 0 {
		return fmt.Errorf("sanitizer: %d error-severity finding(s) across %d kernel(s)", totalErrs, len(algos))
	}
	return nil
}
