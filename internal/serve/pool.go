package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
)

type dgKey struct {
	name  string
	epoch int64
	form  gpualgo.Form
}

// deviceWorker owns one simulated device: it pulls requests from the shared
// admission queue whenever its breaker allows, executes them with the
// resilient retry driver, and recreates the device after a loss or on the
// periodic recycle schedule (the simulator's buffer registry is append-only,
// so a long-lived daemon must swap devices to bound its memory).
type deviceWorker struct {
	s     *Server
	id    int
	idStr string
	brk   *breaker
	plan  *simt.FaultPlan

	// dev and dgs belong to the worker goroutine (plus pre-Start setup).
	dev *simt.Device
	dgs map[dgKey]*gpualgo.DeviceGraph

	served   atomic.Int64
	recycled atomic.Int64
	lost     atomic.Bool
}

func (s *Server) newWorker(id int) (*deviceWorker, error) {
	w := &deviceWorker{s: s, id: id, idStr: strconv.Itoa(id)}
	if p, ok := s.cfg.FaultPlans[id]; ok {
		w.plan = p
	} else if p, ok := s.cfg.FaultPlans[-1]; ok {
		w.plan = p
	}
	w.brk = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, s.cfg.now, func(from, to breakerState) {
		s.met.breakerTransitions.With(w.idStr, to.String()).Inc()
		s.cfg.Logf("serve: device %d breaker %s -> %s", id, from, to)
	})
	s.met.breakerState.Register(func() float64 { return float64(w.brk.State()) }, w.idStr)
	if err := w.freshDevice(); err != nil {
		return nil, err
	}
	return w, nil
}

// freshDevice replaces the worker's device with a new one and re-installs
// the fault plan. A fresh device also resets the plan's cumulative
// device-loss cycle budget, which is what lets a half-open probe succeed
// after an injected loss instead of dying again on the first launch.
func (w *deviceWorker) freshDevice() error {
	dev, err := simt.NewDevice(*w.s.cfg.DeviceConfig)
	if err != nil {
		return fmt.Errorf("serve: device %d: %w", w.id, err)
	}
	if w.plan != nil {
		plan := *w.plan
		dev.SetFaultPlan(&plan)
	}
	w.dev = dev
	w.dgs = make(map[dgKey]*gpualgo.DeviceGraph)
	w.lost.Store(false)
	return nil
}

// verdict is serveOne's report to the breaker.
type verdict int

const (
	verdictSuccess verdict = iota
	verdictFailure
	verdictPermanentFailure
	verdictNeutral // request expired before touching the device
)

func (w *deviceWorker) loop() {
	defer w.s.wg.Done()
	for {
		if !w.brk.Allow() {
			select {
			case <-w.s.stop:
				return
			case <-time.After(w.s.cfg.BreakerCooldown / 8):
			}
			continue
		}
		// Entering service (possibly as a half-open probe): a lost device
		// can never serve again, so swap it first.
		if w.dev.Lost() {
			if err := w.freshDevice(); err != nil {
				w.s.cfg.Logf("serve: device %d: recreate failed: %v", w.id, err)
				w.brk.Failure(true)
				continue
			}
			w.recycled.Add(1)
			w.s.met.recycles.Inc()
		}
		select {
		case <-w.s.stop:
			return
		case rq := <-w.s.queue:
			switch w.serveOne(rq) {
			case verdictSuccess:
				w.brk.Success()
			case verdictFailure:
				w.brk.Failure(false)
			case verdictPermanentFailure:
				w.brk.Failure(true)
			default:
				w.brk.CancelProbe()
			}
		}
	}
}

// serveOne executes one admitted request on this worker's device, falling
// back to the CPU oracle when the device run fails permanently, and always
// sends exactly one reply.
func (w *deviceWorker) serveOne(rq *request) verdict {
	met := w.s.met
	wait := w.s.cfg.now().Sub(rq.enqueued)
	met.queueWait.Observe(wait.Microseconds())

	if rq.ctx.Err() != nil {
		// Expired while queued: cancelled before any launch.
		rq.reply <- &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		return verdictNeutral
	}

	t0 := w.s.cfg.now()
	payload, out, err := w.execute(rq)
	exec := w.s.cfg.now().Sub(t0)
	met.outcome(out)
	w.served.Add(1)
	if w.dev.Lost() {
		w.lost.Store(true)
	}

	if err == nil {
		met.simCycles.With(w.idStr).Add(payload.SimCycles)
		resp := &QueryResponse{
			Algo: rq.algo, Graph: rq.graph.Name, Epoch: rq.graph.Epoch,
			Engine: "gpu", Device: w.id,
			Retries:         outRetries(out),
			Faults:          faultStrings(out),
			QueueWaitMillis: float64(wait) / float64(time.Millisecond),
			ExecMillis:      float64(exec) / float64(time.Millisecond),
			Result:          *payload,
		}
		// Cache before replying, so a client that repeats the query the
		// moment it reads this reply hits the cache.
		if rq.cacheKey != "" {
			w.s.cache.Put(rq.cacheKey, cachedResult{payload: payload, engine: "gpu"})
		}
		rq.reply <- &reply{status: http.StatusOK, resp: resp}
		w.maybeRecycle()
		return verdictSuccess
	}

	// The deadline expiring mid-run is the request's fault, not the
	// device's: shed it without a breaker verdict. Every request carries a
	// deadline, so a launch-timeout here means the MaxCycles clamp fired.
	if rq.ctx.Err() != nil || errors.Is(err, simt.ErrLaunchCancelled) || errors.Is(err, simt.ErrLaunchTimeout) {
		rq.reply <- &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		return verdictNeutral
	}

	// Device fault: degrade this request to the CPU oracle.
	w.s.cfg.Logf("serve: device %d: %s on %q failed: %v (degrading to oracle)", w.id, rq.algo, rq.graph.Name, err)
	permanent := errors.Is(err, simt.ErrDeviceLost) || !simt.IsTransient(err)
	v := verdictFailure
	if permanent {
		v = verdictPermanentFailure
	}
	// oracleExecute only fails when the request context expired.
	payload, oerr := oracleExecute(rq)
	if oerr != nil {
		rq.reply <- &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		return v
	}
	met.degraded.With("fault").Inc()
	resp := &QueryResponse{
		Algo: rq.algo, Graph: rq.graph.Name, Epoch: rq.graph.Epoch,
		Engine: "oracle", Degraded: true, Device: w.id,
		Retries:         outRetries(out),
		Faults:          faultStrings(out),
		QueueWaitMillis: float64(wait) / float64(time.Millisecond),
		ExecMillis:      float64(w.s.cfg.now().Sub(t0)) / float64(time.Millisecond),
		Result:          *payload,
	}
	rq.reply <- &reply{status: http.StatusOK, resp: resp}
	return v
}

// maybeRecycle swaps in a fresh device after RecycleEvery served requests,
// bounding the append-only buffer registry of a long-lived device.
func (w *deviceWorker) maybeRecycle() {
	every := w.s.cfg.RecycleEvery
	if every <= 0 {
		return
	}
	if w.served.Load()%every == 0 {
		if err := w.freshDevice(); err != nil {
			w.s.cfg.Logf("serve: device %d: recycle failed: %v", w.id, err)
			return
		}
		w.recycled.Add(1)
		w.s.met.recycles.Inc()
	}
}

func outRetries(out *resilient.Outcome) int {
	if out == nil {
		return 0
	}
	return out.Retries
}

func faultStrings(out *resilient.Outcome) []string {
	if out == nil || len(out.Faults) == 0 {
		return nil
	}
	fs := make([]string, 0, len(out.Faults))
	for _, f := range out.Faults {
		fs = append(fs, faultClass(f.Err))
	}
	return fs
}

// deviceGraph returns in.G uploaded in a's form, uploading on first use per
// (graph, epoch, form) and reusing it until the device is recycled.
// HostSide entries upload their own copies, so they get nil.
func (w *deviceWorker) deviceGraph(ng *NamedGraph, a *gpualgo.Algorithm, in gpualgo.Input) (*gpualgo.DeviceGraph, error) {
	if a.Form == gpualgo.HostSide {
		return nil, nil
	}
	key := dgKey{name: ng.Name, epoch: ng.Epoch, form: a.Form}
	if dg, ok := w.dgs[key]; ok {
		return dg, nil
	}
	dg, err := a.Upload(w.dev, in)
	if err != nil {
		return nil, err
	}
	w.dgs[key] = dg
	return dg, nil
}

// execute runs the request's algorithm on this worker's device under the
// resilient retry driver, with the request deadline propagated into every
// launch. A request that names no width runs at the snapshot's tuned one,
// which the first such request per algorithm measures (see tune).
func (w *deviceWorker) execute(rq *request) (*ResultPayload, *resilient.Outcome, error) {
	a, in, err := rq.input()
	if err != nil {
		return nil, nil, err
	}
	k := rq.k
	if k == 0 {
		k, err = rq.graph.tunedK(rq.ctx, a.Name, func() (int, error) { return w.tune(rq.graph, a) })
		if err != nil {
			return nil, nil, err
		}
	}
	dg, err := w.deviceGraph(rq.graph, a, in)
	if err != nil {
		return nil, nil, err
	}
	pol := w.s.cfg.Retry
	pol.Launch = w.s.launchOpts(rq.ctx)
	run, result, err := a.NewRun(w.dev, dg, in, gpualgo.Options{K: k}, pol.Launch)
	if err != nil {
		return nil, nil, err
	}
	out, err := resilient.Drive(pol, run)
	if err != nil {
		return nil, out, err
	}
	return newPayload(a, result(), rq.full, k), out, nil
}

// tune measures a on ng at each of the device's candidate widths and
// returns the one with the fewest simulated cycles. It runs on this
// worker's device under the server's retry policy, over the snapshot's
// default input (default source and PageRank parameters), and its limits
// come from the server config, never from the request that triggered the
// sweep: the width depends only on the snapshot, the algorithm and the
// device config. SweepK runs the warp width first, under the cycles of the
// longest deadline on the service clock; every later candidate stops once
// it passes the fewest cycles so far, so a sweep costs at most about twice
// the warp width's run per candidate. A server stop cancels the sweep.
func (w *deviceWorker) tune(ng *NamedGraph, a *gpualgo.Algorithm) (int, error) {
	in, err := ng.input(a, ng.DefaultSource(), defaultIterations, defaultDamping)
	if err != nil {
		return 0, err
	}
	dg, err := w.deviceGraph(ng, a, in)
	if err != nil {
		return 0, err
	}
	ks := gpualgo.CandidateKs(w.dev)
	stopped := make(map[int]int64) // K -> the limit its run passed
	t0 := w.s.cfg.now()
	res, err := gpualgo.SweepK(ks, func(k int, bound int64) (int64, error) {
		limit := bound
		if limit == 0 {
			limit = w.s.sweepBudget()
		}
		pol := w.s.cfg.Retry
		pol.Launch = simt.LaunchOpts{MaxCycles: limit, OnProgress: func(int64) error { return w.s.stopping() }}
		run, result, err := a.NewRun(w.dev, dg, in, gpualgo.Options{K: k}, pol.Launch)
		if err != nil {
			return 0, err
		}
		sr := &sweepRun{Stepper: run, s: w.s, dev: w.dev, limit: limit}
		out, err := resilient.Drive(pol, sr)
		if errors.Is(err, simt.ErrLaunchTimeout) {
			// One launch passed limit: this width lost, which is no fault.
			out.Faults = out.Faults[:len(out.Faults)-1]
			sr.spent, err = limit+1, nil
		}
		w.s.met.outcome(out)
		if err != nil {
			return 0, err
		}
		if !sr.finished {
			stopped[k] = limit
			return sr.spent, nil
		}
		return result().Stats.Cycles, nil
	})
	if err != nil {
		return 0, err
	}
	var cycles strings.Builder
	for _, k := range ks {
		if limit, ok := stopped[k]; ok {
			fmt.Fprintf(&cycles, " K=%d:>%d", k, limit)
		} else {
			fmt.Fprintf(&cycles, " K=%d:%d", k, res.Cycles[k])
		}
	}
	w.s.cfg.Logf("serve: device %d: tuned %s on %q (epoch %d) to K=%d in %v; cycles%s",
		w.id, a.Name, ng.Name, ng.Epoch, res.BestK, w.s.cfg.now().Sub(t0).Round(time.Millisecond), cycles.String())
	return res.BestK, nil
}

// sweepRun is one candidate run of a width sweep. It reports the run done
// once the rounds it finished spent more than limit cycles, or fails it
// when the server stops, so neither a losing width nor a drain waits for
// the rest of its rounds.
type sweepRun struct {
	gpualgo.Stepper
	s        *Server
	dev      *simt.Device
	limit    int64
	spent    int64 // cycles of the rounds finished
	finished bool  // the run itself reported done
}

func (r *sweepRun) Step() (bool, error) {
	if err := r.s.stopping(); err != nil {
		return false, err
	}
	before := r.dev.Totals().Cycles
	done, err := r.Stepper.Step()
	if err != nil {
		return false, err
	}
	r.spent += r.dev.Totals().Cycles - before
	r.finished = done
	return done || r.spent > r.limit, nil
}

// degradeLoop is the oracle of last resort: while every device breaker is
// open it pulls from the admission queue and answers on the CPU, so a fully
// sick pool degrades instead of queueing to the deadline.
func (s *Server) degradeLoop() {
	defer s.wg.Done()
	tick := s.cfg.BreakerCooldown / 4
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	for {
		if s.healthyDevices() > 0 {
			select {
			case <-s.stop:
				return
			case <-time.After(tick):
			}
			continue
		}
		select {
		case <-s.stop:
			return
		case <-time.After(tick):
		case rq := <-s.queue:
			s.serveOracle(rq)
		}
	}
}

// serveOracle answers one request on the CPU because no device was
// available.
func (s *Server) serveOracle(rq *request) {
	wait := s.cfg.now().Sub(rq.enqueued)
	s.met.queueWait.Observe(wait.Microseconds())
	if rq.ctx.Err() != nil {
		rq.reply <- &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		return
	}
	t0 := s.cfg.now()
	payload, err := oracleExecute(rq)
	if err != nil {
		rq.reply <- &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		return
	}
	s.met.degraded.With("pool").Inc()
	rq.reply <- &reply{status: http.StatusOK, resp: &QueryResponse{
		Algo: rq.algo, Graph: rq.graph.Name, Epoch: rq.graph.Epoch,
		Engine: "oracle", Degraded: true, Device: -1,
		QueueWaitMillis: float64(wait) / float64(time.Millisecond),
		ExecMillis:      float64(s.cfg.now().Sub(t0)) / float64(time.Millisecond),
		Result:          *payload,
	}}
}

// oracleExecute answers the request with the CPU reference implementation.
func oracleExecute(rq *request) (*ResultPayload, error) {
	if err := rq.ctx.Err(); err != nil {
		return nil, err
	}
	a, in, err := rq.input()
	if err != nil {
		return nil, err
	}
	return newPayload(a, a.Oracle(in), rq.full, 0), nil
}

// input resolves the request's table entry and its input.
func (rq *request) input() (*gpualgo.Algorithm, gpualgo.Input, error) {
	a := gpualgo.Lookup(rq.algo)
	if a == nil {
		return nil, gpualgo.Input{}, fmt.Errorf("serve: unknown algo %q", rq.algo)
	}
	in, err := rq.graph.input(a, rq.src, rq.iters, rq.damping)
	return a, in, err
}

// input is a's input on ng: the symmetrized graph for Symmetrized entries,
// the served weights, and the given source and PageRank parameters.
func (ng *NamedGraph) input(a *gpualgo.Algorithm, src graph.VertexID, iters int, damping float64) (gpualgo.Input, error) {
	in := gpualgo.Input{G: ng.G, Weights: ng.Weights, Src: src, Iterations: iters, Damping: damping}
	if a.Form == gpualgo.Symmetrized {
		sym, err := ng.Sym()
		if err != nil {
			return gpualgo.Input{}, err
		}
		in.G = sym
	}
	return in, nil
}

// newPayload renders an answer as the wire result: the entry's summary, the
// width k it ran at (0 for oracle answers), plus the answer vector when
// full.
func newPayload(a *gpualgo.Algorithm, o gpualgo.Output, full bool, k int) *ResultPayload {
	s := a.Summarize(o.Value)
	p := &ResultPayload{
		Iterations: o.Rounds, Depth: s.Depth, Reached: s.Reached, MaxFiniteDist: s.MaxFiniteDist,
		Components: s.Components, RankSum: s.RankSum, TopVertex: s.TopVertex, SimCycles: o.Stats.Cycles, K: k,
	}
	if full {
		p.Levels, p.Dist, p.Labels, p.Ranks = s.Levels, s.Dist, s.Labels, s.Ranks
	}
	return p
}
