// Command mwbench is maxwarp's benchmark. One run executes one workload for
// a fixed time from a seed, checks every answer against the CPU oracle
// (internal/cpualgo), prints each metric by name with its unit, and ends
// with one JSON result line. With -trace 1 it also replays the workload's
// queries layer by layer and reports per-layer metrics instead of the
// end-to-end ones. See README.md; run it through run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is one benchmark run's settings and running tally.
type env struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// bin is the maxwarp binary the serve workloads start.
	bin string
	// workdir receives the daemon's log and the trace.
	workdir string
	spans   *spanRecorder
	tally   tally
}

// tally counts checked operations.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one operation, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env, map[string]float64) error{
	"serve-mix": runServe,
	"cli-rmat":  runCLI,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		os.Exit(1)
	}
}

func run() error {
	e := &env{}
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload: serve-mix or cli-rmat")
	flag.Uint64Var(&e.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&e.seconds, "seconds", 50, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&e.bin, "maxwarp", "", "path of the maxwarp binary")
	flag.StringVar(&e.workdir, "workdir", ".bench_build/mwbench", "directory for logs and traces")
	flag.Parse()
	runner, ok := workloads[e.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", e.workload)
	case e.seconds < 1:
		return fmt.Errorf("-seconds %d: want at least 1", e.seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	case e.bin == "":
		return fmt.Errorf("-maxwarp is required")
	}
	e.trace = trace == 1
	if e.trace {
		e.spans = newSpanRecorder()
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	host, _ := os.Hostname()
	fmt.Printf("mwbench %s seed=%d seconds=%d trace=%d host=%s nproc=%d %s %s/%s\n",
		e.workload, e.seed, e.seconds, trace, host, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	start := time.Now()
	values := make(map[string]float64)
	if err := runner(ctx, e, values); err != nil {
		return err
	}
	defs := endToEndDefs()
	if e.trace {
		defs = perLayerDefs()
		path := filepath.Join(e.workdir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
		if err := e.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return err
	}
	printTable(defs, metrics)
	fmt.Printf("%-40s %14.4f %s\n", "error_ratio", float64(e.tally.failed)/float64(max(e.tally.attempted, 1)), "ratio")
	for _, msg := range e.tally.errs {
		fmt.Println("failed:", msg)
	}
	fmt.Printf("ops attempted=%d failed=%d wall=%.1fs\n", e.tally.attempted, e.tally.failed, time.Since(start).Seconds())
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{e.tally.failed == 0, e.tally.attempted, e.tally.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printTable prints one line per metric, grouped by layer prefix.
func printTable(defs []metricDef, metrics map[string]metricValue) {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.SliceStable(names, func(i, j int) bool { return names[i] < names[j] })
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
