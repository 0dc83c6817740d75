package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maxwarp/internal/serve"
	"maxwarp/internal/simt"
)

// cmdServe runs the graph-analytics daemon: a pool of simulated devices
// behind a bounded admission queue, serving BFS/SSSP/PageRank/CC queries
// over pre-loaded graphs with quotas, deadlines, circuit breakers, and
// graceful drain on SIGTERM. See docs/SERVICE.md.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts using :0)")
	devices := fs.Int("devices", 2, "simulated device pool size")
	graphs := fs.String("graphs", "wiki=WikiTalk-like:10,road=RoadNet-like:10",
		"comma-separated graph specs: name=Preset:scale[:seed] or name=@file.gr")
	queue := fs.Int("queue", 64, "admission queue depth")
	deadline := fs.Duration("deadline", 2*time.Second, "default per-request deadline")
	maxDeadline := fs.Duration("max-deadline", 30*time.Second, "cap on client-requested deadlines")
	cps := fs.Int64("cps", 25_000_000, "service clock: simulated cycles per wall second (deadline -> MaxCycles)")
	qps := fs.Float64("qps", 0, "per-tenant sustained quota in requests/s (0 = unlimited)")
	burst := fs.Float64("burst", 0, "per-tenant quota burst (default: same as -qps)")
	cache := fs.Int("cache", 256, "result cache entries (negative disables)")
	breakerN := fs.Int("breaker-threshold", 3, "consecutive failures tripping a device breaker")
	cooldown := fs.Duration("breaker-cooldown", 250*time.Millisecond, "breaker open->half-open cooldown")
	recycle := fs.Int64("recycle", 512, "recreate a device every N served requests (negative disables)")
	inject := fs.String("inject", "", "chaos: fault plans per device, 'DEV:SPEC[;DEV:SPEC...]' (DEV=all for every device); SPEC as in 'maxwarp bfs -inject'")
	sms := fs.Int("sms", 0, "SMs per simulated device (0 = simulator default)")
	mutateMax := fs.Int("mutate-max-batch", 0, "max mutations per /mutate batch (0 = default 4096, negative = unbounded)")
	mutateRebase := fs.Int("mutate-rebase", 0, "auto-rebase a graph's delta overlay past this many pending ops (0 = default 1024, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var specs []serve.GraphSpec
	for _, arg := range strings.Split(*graphs, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		spec, err := serve.ParseGraphSpec(arg)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}

	plans, err := parseDevicePlans(*inject)
	if err != nil {
		return err
	}

	dev := simt.DefaultConfig()
	dev.ParallelSMs = 1 // every serve launch carries OnProgress, which forces the sequential loop
	if *sms > 0 {
		dev.NumSMs = *sms
	}
	cfg := serve.Config{
		Graphs:                specs,
		Devices:               *devices,
		DeviceConfig:          &dev,
		FaultPlans:            plans,
		QueueDepth:            *queue,
		DefaultDeadline:       *deadline,
		MaxDeadline:           *maxDeadline,
		CyclesPerSecond:       *cps,
		Quota:                 serve.QuotaConfig{Default: serve.TenantQuota{RatePerSec: *qps, Burst: *burst}},
		CacheEntries:          *cache,
		BreakerThreshold:      *breakerN,
		BreakerCooldown:       *cooldown,
		RecycleEvery:          *recycle,
		MutateMaxBatch:        *mutateMax,
		MutateRebaseThreshold: *mutateRebase,
	}

	s, err := serve.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "maxwarp serve: listening on %s (%d devices, %d graphs)\n", bound, *devices, len(specs))

	s.Start()
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "maxwarp serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "maxwarp serve: forced drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "maxwarp serve: drained cleanly")
	return nil
}

// parseDevicePlans parses the serve -inject flag: "0:loss=8000;1:abort=3"
// or "all:bitflip=5,seed=9".
func parseDevicePlans(spec string) (map[int]*simt.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plans := make(map[int]*simt.FaultPlan)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		devStr, planSpec, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("serve -inject %q: want DEV:SPEC", part)
		}
		plan, err := parseFaultPlan(planSpec)
		if err != nil {
			return nil, err
		}
		if devStr == "all" {
			plans[-1] = plan
			continue
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return nil, fmt.Errorf("serve -inject %q: bad device %q", part, devStr)
		}
		plans[dev] = plan
	}
	return plans, nil
}
