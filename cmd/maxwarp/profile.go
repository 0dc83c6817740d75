package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/simt"
	"maxwarp/internal/traceview"
)

// startHostProfiles arms Go's own runtime profilers over the simulated run:
// -cpuprofile starts CPU sampling immediately, -memprofile writes an
// allocation profile at teardown. These profile the *simulator host*, not the
// simulated GPU — the tool for chasing interpret-loop regressions with
// `go tool pprof`, complementing the simulated-side metrics/trace sinks.
// The returned stop function is safe to call exactly once.
func startHostProfiles(cpuOut, memOut string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuOut != "" {
		cpuFile, err = os.Create(cpuOut)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "cpu profile -> %s\n", cpuOut)
		}
		if memOut != "" {
			f, err := os.Create(memOut)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects so in-use stats are accurate
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write heap profile: %w", err)
			}
			fmt.Fprintf(os.Stderr, "heap profile -> %s\n", memOut)
		}
		return nil
	}, nil
}

// obsSinks bundles the observability outputs shared by the profile, bfs,
// algo, and run subcommands: a metrics registry destined for a Prometheus
// text file ("-" = stdout) and a sampling tracer destined for a Chrome
// trace_event JSON file.
type obsSinks struct {
	metricsOut string
	traceOut   string
	perSM      bool

	metrics *obs.Metrics
	tracer  *obs.SamplingTracer
}

// addObsFlags registers the shared -metrics/-trace-out flags.
func addObsFlags(fs *flag.FlagSet) *obsSinks {
	s := &obsSinks{}
	fs.StringVar(&s.metricsOut, "metrics", "", "write Prometheus-style metrics to file ('-' = stdout)")
	fs.StringVar(&s.traceOut, "trace-out", "", "write a Chrome trace_event JSON timeline to file")
	fs.BoolVar(&s.perSM, "persm", false, "include per-SM samples in -metrics output")
	return s
}

// arm attaches the requested sinks to a device: a metrics registry (with
// per-launch histograms enabled) and/or a parallel-safe sampling tracer.
// Sampled tracing and metrics never force the sequential fallback.
func (s *obsSinks) arm(dev *simt.Device, sampleEvery int64, capPerSM int) {
	cfg := dev.Config()
	if s.metricsOut != "" {
		s.metrics = obs.NewMetrics(cfg.NumSMs)
		dev.SetProfiling(true)
	}
	if s.traceOut != "" {
		s.tracer = obs.NewSamplingTracer(cfg.NumSMs, sampleEvery, capPerSM)
		dev.SetTracer(s.tracer)
	}
}

// flush writes the collected outputs. stats is the run's merged LaunchStats
// (the Prometheus document contains it plus any registry counters).
func (s *obsSinks) flush(stats *simt.LaunchStats) error {
	if s.metricsOut != "" {
		text, err := obs.ExportPromText("maxwarp", stats, s.metrics, s.perSM)
		if err != nil {
			return err
		}
		if s.metricsOut == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(s.metricsOut, []byte(text), 0o644); err != nil {
			return err
		}
	}
	if s.traceOut != "" && s.tracer != nil {
		data, err := traceview.ChromeTrace(s.tracer.Events())
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: sampled %d of %d instructions, kept %d events -> %s\n",
			s.tracer.InstrSampled(), s.tracer.InstrSeen(), s.tracer.Kept(), s.traceOut)
	}
	return nil
}

// cmdProfile runs one kernel with the full observability stack — sharded
// counters, per-launch histograms, and the parallel-safe sampling tracer —
// and emits Prometheus text plus (optionally) a Chrome timeline. Unlike the
// trace subcommand, this keeps the ParallelSMs fast path.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	name := fs.String("name", "bfs", "kernel (see 'algo -name')")
	preset := fs.String("preset", "", "workload preset name (see 'maxwarp list')")
	file := fs.String("graph", "", "graph file (.bin or edge list)")
	scale := fs.Int("scale", 12, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed")
	k := fs.Int("k", 32, "virtual warp width (1 = thread-per-vertex baseline)")
	dynamic := fs.Bool("dynamic", false, "dynamic workload distribution")
	iters := fs.Int("iters", 10, "iterations for pagerank")
	sample := fs.Int64("sample", 64, "keep 1 in N instruction events per SM")
	events := fs.Int("events", 4096, "trace ring capacity per SM")
	parallel := fs.Int("parallel", 0, "host goroutines driving SMs (0 = one per CPU, 1 = sequential event loop)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile (pprof) to file")
	memprofile := fs.String("memprofile", "", "write a host heap profile (pprof) to file at exit")
	sinks := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if sinks.metricsOut == "" {
		sinks.metricsOut = "-"
	}
	a, err := lookupKernel(*name)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	stopProfiles, err := startHostProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		// Early-error path: flush whatever profile data exists.
		if stopProfiles != nil {
			stopProfiles()
		}
	}()
	g, gname, fileWeights, err := loadWorkloadWeighted(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	dcfg := simt.DefaultConfig()
	dcfg.ParallelSMs = *parallel
	dev, err := simt.NewDevice(dcfg)
	if err != nil {
		return err
	}
	sinks.arm(dev, *sample, *events)
	opts := gpualgo.Options{K: *k, Dynamic: *dynamic, Metrics: sinks.metrics}
	src := graph.LargestOutComponentSeed(g)

	in, err := algoInput(a, g, src, algoParams{seed: *seed, coreK: defaultCoreK, iters: *iters, samples: defaultSamples, fileWeights: fileWeights})
	if err != nil {
		return err
	}
	run, err := a.Run(dev, in, opts)
	if err != nil {
		return err
	}
	stats := run.Stats

	// Stop host profiling before sink serialization so the CPU profile
	// covers the simulated run only.
	stop := stopProfiles
	stopProfiles = nil
	if err := stop(); err != nil {
		return err
	}

	cfg := dev.Config()
	fmt.Fprintf(os.Stderr, "profiled %s on %s (K=%d, ParallelSMs=%d): %d cycles over %d rounds",
		a.Name, gname, *k, stats.ParallelSMs, stats.Cycles, run.Rounds)
	if stats.SequentialFallback != "" {
		fmt.Fprintf(os.Stderr, "  [sequential fallback: %s]", stats.SequentialFallback)
	}
	fmt.Fprintf(os.Stderr, "  (%.3f ms at %.1f GHz)\n", stats.TimeMS(cfg.ClockGHz), cfg.ClockGHz)
	return sinks.flush(&stats)
}
