// Command maxwarp runs the repository's experiments and individual graph
// algorithms on the simulated GPU.
//
// Usage:
//
//	maxwarp list
//	maxwarp run  [-exp all|E1,E4,...] [-scale N] [-seed N] [-format text|md|csv] [-out FILE]
//	maxwarp bfs  [-preset NAME | -graph FILE] [-k K] [-dynamic] [-defer N] [-src V] [-scale N]
//	             [-inject SPEC] [-retries N]
//	maxwarp algo -name sssp [-preset NAME | -graph FILE] [-k K] [-scale N]
//	maxwarp info [-preset NAME | -graph FILE] [-scale N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"maxwarp/internal/bench"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/report"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "maxwarp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList(os.Stdout)
	case "run":
		return cmdRun(args[1:])
	case "bfs":
		return cmdBFS(args[1:])
	case "algo":
		return cmdAlgo(args[1:])
	case "sanitize":
		return cmdSanitize(args[1:])
	case "lint":
		return cmdLint(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "graph500":
		return cmdGraph500(args[1:])
	case "dynamic":
		return cmdDynamic(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadtest":
		return cmdLoadtest(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	default:
		usage(os.Stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `maxwarp — virtual warp-centric GPU graph algorithms (PPoPP'11 reproduction)

subcommands:
  list   list experiments and workload presets
  run    run experiments and print their tables
  bfs    run one BFS configuration and print its stats
  algo   run any kernel (sssp, pagerank, cc, spmv, triangles, kcore, mis, ...)
  sanitize run kernels under the race/memcheck/synccheck sanitizer
  lint   static warp-efficiency verdicts per kernel (CFG + lane-taint analysis)
  trace  run a traced BFS and print instruction mix + SM timeline
  profile run one kernel with sampled tracing + metrics (parallel-safe)
  verify cross-check every kernel against its CPU oracle
  graph500 run a Graph500-style BFS benchmark with validation
  dynamic stream mutation batches and compare incremental repair vs full recompute
  serve  run the fault-tolerant graph-analytics HTTP daemon
  loadtest drive a synthetic query mix against a serve daemon
  info   print a workload's degree statistics
`)
}

func cmdList(w io.Writer) error {
	fmt.Fprintln(w, "experiments:")
	for _, e := range bench.All() {
		fmt.Fprintf(w, "  %-4s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "\nworkload presets:")
	for _, p := range gengraph.Presets() {
		fmt.Fprintf(w, "  %-18s %s\n", p.Name, p.Regime)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
	scale := fs.Int("scale", 10, "log2 vertices for synthetic workloads")
	seed := fs.Uint64("seed", 42, "generator seed")
	format := fs.String("format", "text", "output format: text, md, csv, chart")
	out := fs.String("out", "", "write output to file instead of stdout")
	parallel := fs.Int("parallel", 0, "host goroutines driving SMs (0 = one per CPU, 1 = sequential event loop)")
	metricsOut := fs.String("metrics", "", "write Prometheus-style metrics totals across all experiment devices to file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed}.WithDefaults()
	cfg.Device.ParallelSMs = *parallel

	// With -metrics, every device the experiments create gets profiling
	// enabled and its lifetime totals are folded into one document at the
	// end. Counter totals are deterministic; Cycles sums every launch.
	var devices []*simt.Device
	if *metricsOut != "" {
		cfg.NewDevice = func(dc simt.Config) (*simt.Device, error) {
			d, err := simt.NewDevice(dc)
			if err == nil {
				d.SetProfiling(true)
				devices = append(devices, d)
			}
			return d, err
		}
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", e.ID, e.Title)
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			switch *format {
			case "md":
				fmt.Fprintln(w, t.Markdown())
			case "csv":
				fmt.Fprintln(w, t.CSV())
			case "text":
				fmt.Fprintln(w, t.Text())
			case "chart":
				if t.Chartable() {
					fmt.Fprintln(w, t.ToChart().Text())
				} else {
					fmt.Fprintln(w, t.Text())
				}
			default:
				return fmt.Errorf("unknown format %q", *format)
			}
		}
	}
	if *metricsOut != "" {
		var total simt.LaunchStats
		var launches int64
		for _, d := range devices {
			t := d.Totals()
			total.Add(&t)
			launches += d.LaunchCount()
		}
		text, err := obs.ExportPromText("maxwarp", &total, nil, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: totals over %d devices, %d launches\n", len(devices), launches)
		if *metricsOut == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(*metricsOut, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadWorkload resolves the -preset/-graph flags shared by the run-one
// subcommands. Files ending in .gr are parsed as weighted DIMACS and the
// weights flow to the weighted kernels (sssp, deltastep).
func loadWorkload(preset, file string, scale int, seed uint64) (*graph.CSR, string, error) {
	g, name, _, err := loadWorkloadWeighted(preset, file, scale, seed)
	return g, name, err
}

func loadWorkloadWeighted(preset, file string, scale int, seed uint64) (*graph.CSR, string, []int32, error) {
	switch {
	case preset != "" && file != "":
		return nil, "", nil, fmt.Errorf("-preset and -graph are mutually exclusive")
	case preset != "":
		p, err := gengraph.PresetByName(preset)
		if err != nil {
			return nil, "", nil, err
		}
		g, err := p.Build(scale, seed)
		return g, p.Name, nil, err
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, "", nil, err
		}
		defer f.Close()
		switch {
		case strings.HasSuffix(file, ".bin"):
			g, err := graph.ReadBinary(f)
			return g, file, nil, err
		case strings.HasSuffix(file, ".gr"):
			g, weights, err := graph.ReadDIMACS(f)
			return g, file, weights, err
		default:
			g, err := graph.ReadEdgeList(f)
			return g, file, nil, err
		}
	default:
		p := gengraph.Presets()[1] // LiveJournal-like
		g, err := p.Build(scale, seed)
		return g, p.Name, nil, err
	}
}

func cmdBFS(args []string) error {
	fs := flag.NewFlagSet("bfs", flag.ContinueOnError)
	preset := fs.String("preset", "", "workload preset name (see 'maxwarp list')")
	file := fs.String("graph", "", "graph file (.bin or edge list)")
	scale := fs.Int("scale", 12, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed")
	k := fs.Int("k", 32, "virtual warp width (1 = thread-per-vertex baseline)")
	dynamic := fs.Bool("dynamic", false, "dynamic workload distribution")
	chunk := fs.Int("chunk", 0, "dynamic fetch chunk size (0 = default)")
	deferTh := fs.Int("defer", 0, "outlier deferral degree threshold (0 = off)")
	src := fs.Int("src", -1, "source vertex (-1 = auto: large component)")
	inject := fs.String("inject", "", "fault-injection spec: abort=N,bitflip=N,buffers=a|b,loss=N,seed=N,maxfaults=N")
	retries := fs.Int("retries", 3, "per-level retry budget under -inject (min 1)")
	parallel := fs.Int("parallel", 0, "host goroutines driving SMs (0 = one per CPU, 1 = sequential event loop)")
	sanitized := fs.Bool("sanitize", false, "run under the kernel sanitizer and report hazards after the stats")
	sinks := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, name, err := loadWorkload(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	source := graph.VertexID(*src)
	if *src < 0 {
		source = graph.LargestOutComponentSeed(g)
	}
	dcfg := simt.DefaultConfig()
	dcfg.ParallelSMs = *parallel
	dcfg.Sanitize = *sanitized
	dev, err := simt.NewDevice(dcfg)
	if err != nil {
		return err
	}
	san := armSanitizer(dev, *sanitized)
	sinks.arm(dev, 64, 4096)
	opts := gpualgo.Options{
		K: *k, Dynamic: *dynamic, Chunk: int32(*chunk), DeferThreshold: int32(*deferTh),
		Metrics: sinks.metrics,
	}
	if *inject != "" {
		plan, err := parseFaultPlan(*inject)
		if err != nil {
			return err
		}
		if *retries < 1 {
			return fmt.Errorf("-retries must be >= 1 (got %d)", *retries)
		}
		dev.SetFaultPlan(plan)
		a := gpualgo.Lookup("bfs")
		o, out, err := resilient.Execute(dev, a, gpualgo.Input{G: g, Src: source}, opts, resilient.Policy{MaxRetries: *retries})
		if err != nil {
			return err
		}
		sum := a.Summarize(o.Value)
		fmt.Printf("graph       %s (%s)\n", name, graph.Stats(g))
		fmt.Printf("mapping     K=%d dynamic=%v defer=%d  inject=%s\n", *k, *dynamic, *deferTh, *inject)
		fmt.Printf("source      %d  reached %d/%d  depth %d\n", source, sum.Reached, g.NumVertices(), sum.Depth)
		printOutcome(os.Stdout, *out)
		if !out.Degraded {
			cfg := dev.Config()
			fmt.Printf("cycles      %d  (%.3f ms at %.1f GHz)\n",
				o.Stats.Cycles, o.Stats.TimeMS(cfg.ClockGHz), cfg.ClockGHz)
		}
		return reportSanitizer(san, false)
	}
	dg := gpualgo.Upload(dev, g)
	res, err := gpualgo.BFS(dev, dg, source, opts)
	if err != nil {
		return err
	}
	reached := 0
	for _, l := range res.Levels {
		if l >= 0 {
			reached++
		}
	}
	cfg := dev.Config()
	fmt.Printf("graph       %s (%s)\n", name, graph.Stats(g))
	fmt.Printf("mapping     K=%d dynamic=%v defer=%d\n", *k, *dynamic, *deferTh)
	fmt.Printf("source      %d  reached %d/%d  depth %d  levels-launches %d\n",
		source, reached, g.NumVertices(), res.Depth, res.Launches)
	fmt.Printf("cycles      %d  (%.3f ms at %.1f GHz)\n",
		res.Stats.Cycles, res.Stats.TimeMS(cfg.ClockGHz), cfg.ClockGHz)
	fmt.Printf("throughput  %.2f MTEPS (simulated)\n", res.TEPS(g.NumEdges(), cfg.ClockGHz)/1e6)
	fmt.Printf("simd util   %.3f   useful %.3f   imbalance CV %.3f\n",
		res.Stats.SIMDUtilization(), res.Stats.UsefulUtilization(), res.Stats.WarpImbalanceCV())
	fmt.Printf("memory      %d txns (%.2f/op)   atomics %d (+%d serial)   deferred %d\n",
		res.Stats.MemTxns, res.Stats.TxnsPerMemOp(), res.Stats.AtomicOps, res.Stats.AtomicSerial, res.Deferred)
	if err := sinks.flush(&res.Stats); err != nil {
		return err
	}
	return reportSanitizer(san, false)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	preset := fs.String("preset", "", "workload preset name")
	file := fs.String("graph", "", "graph file (.bin or edge list)")
	scale := fs.Int("scale", 12, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, name, err := loadWorkload(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	s := graph.Stats(g)
	fmt.Printf("%s: %s\n", name, s)
	zero, buckets := graph.DegreeHistogram(g)
	t := &report.Table{ID: "info", Title: "degree histogram", Columns: []string{"degree", "vertices"}}
	t.AddRow("0", report.I(int64(zero)))
	for b, count := range buckets {
		t.AddRow(fmt.Sprintf("%d-%d", 1<<b, 1<<(b+1)-1), report.I(int64(count)))
	}
	fmt.Print(t.Text())
	return nil
}
