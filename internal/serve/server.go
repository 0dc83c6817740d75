package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
)

// Shed reasons (the "reason" label on maxwarp_serve_shed_total and the
// X-Maxwarp-Reason response header).
const (
	ReasonQueueFull = "queue_full"
	ReasonQuota     = "quota"
	ReasonDeadline  = "deadline"
	ReasonDraining  = "draining"
)

// Config configures the analytics server.
type Config struct {
	// Graphs are the named graphs to pre-load. Required.
	Graphs []GraphSpec
	// Devices is the simulated-device pool size (default 2).
	Devices int
	// DeviceConfig configures each simulated device. Nil uses
	// simt.DefaultConfig with the sequential event loop (every launch the
	// server makes attaches an OnProgress cancellation hook, which forces
	// the sequential loop anyway — defaulting avoids a fallback warning per
	// request).
	DeviceConfig *simt.Config
	// FaultPlans installs a fault-injection plan per device slot (chaos
	// testing); the key -1 applies to every device without its own entry.
	FaultPlans map[int]*simt.FaultPlan

	// QueueDepth bounds the admission queue; a full queue sheds with 429
	// (default 64).
	QueueDepth int
	// DefaultDeadline applies when a request does not set deadline_ms
	// (default 2s); MaxDeadline caps client-requested deadlines (default
	// 30s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CyclesPerSecond converts wall-clock deadline budget into a per-launch
	// simt.LaunchOpts.MaxCycles clamp (default 25e6: a deliberately slow
	// "service clock" so second-scale deadlines map to meaningful cycle
	// budgets on the simulator).
	CyclesPerSecond int64

	// MutateMaxBatch bounds one POST /v1/graphs/{name}/mutate batch
	// (default 4096; negative removes the bound).
	MutateMaxBatch int
	// MutateRebaseThreshold is the streaming-mutation auto-compaction
	// trigger: once a graph's overlay holds more pending operations, it is
	// rebased onto the compacted snapshot (default 1024; negative disables
	// auto-rebase).
	MutateRebaseThreshold int

	// Quota is the per-tenant admission quota table (zero Default.RatePerSec
	// = unlimited).
	Quota QuotaConfig
	// CacheEntries bounds the result cache (default 256; negative disables).
	CacheEntries int
	// BreakerThreshold is the consecutive-failure count that trips a device
	// breaker (default 3; permanent faults trip immediately).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-open probing (default 250ms).
	BreakerCooldown time.Duration
	// RecycleEvery recreates a device after that many served requests,
	// bounding the memory of the simulator's append-only buffer registry
	// in a long-lived daemon; a launch's time does not grow with the
	// registry (default 512; negative disables).
	RecycleEvery int64
	// Retry is the per-request device retry policy (resilient defaults
	// apply; Launch is overwritten per request with the deadline clamp).
	Retry resilient.Policy
	// TraceSpans bounds the /debug/trace ring (default 2048).
	TraceSpans int
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// now is the clock, injectable for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 2
	}
	if c.DeviceConfig == nil {
		cfg := simt.DefaultConfig()
		cfg.ParallelSMs = 1
		c.DeviceConfig = &cfg
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.CyclesPerSecond == 0 {
		c.CyclesPerSecond = 25_000_000
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MutateMaxBatch == 0 {
		c.MutateMaxBatch = 4096
	}
	if c.MutateRebaseThreshold == 0 {
		c.MutateRebaseThreshold = 1024
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.RecycleEvery == 0 {
		c.RecycleEvery = 512
	}
	if c.TraceSpans == 0 {
		c.TraceSpans = 2048
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the graph-analytics daemon: a pool of simulated devices behind
// a bounded admission queue, with per-device circuit breakers and a CPU
// oracle of last resort. Create with New, start the pool with Start, mount
// Handler on an http.Server, and stop with Shutdown.
type Server struct {
	cfg     Config
	graphs  *Registry
	met     *serverMetrics
	cache   *resultCache
	quotas  *quotas
	ring    *spanRing
	queue   chan *request
	workers []*deviceWorker

	stop     chan struct{}
	wg       sync.WaitGroup // worker + degrade goroutines
	gate     *drainGate     // tracks requests between admission and reply
	started  atomic.Bool
	draining atomic.Bool
	start    time.Time
}

// drainGate counts in-flight requests and supports a race-free drain: once
// closed, Enter refuses, and the idle channel closes when the last request
// leaves. (A sync.WaitGroup cannot do this: Add concurrent with Wait at
// counter zero is a data race by contract.)
type drainGate struct {
	mu     sync.Mutex
	n      int
	closed bool
	idle   chan struct{}
}

func newDrainGate() *drainGate { return &drainGate{idle: make(chan struct{})} }

// Enter registers one request; false means the gate is closed (draining).
func (g *drainGate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.n++
	return true
}

// Leave unregisters one request.
func (g *drainGate) Leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.closed && g.n == 0 {
		close(g.idle)
	}
}

// Close refuses future Enters and returns a channel that closes once every
// registered request has left.
func (g *drainGate) Close() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		if g.n == 0 {
			close(g.idle)
		}
	}
	return g.idle
}

// New builds the server: loads every configured graph and creates the
// device pool. The pool is idle until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg, err := LoadGraphs(cfg.Graphs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		graphs: reg,
		quotas: newQuotas(cfg.Quota, cfg.now),
		cache:  newResultCache(cfg.CacheEntries),
		queue:  make(chan *request, cfg.QueueDepth),
		stop:   make(chan struct{}),
		gate:   newDrainGate(),
		start:  cfg.now(),
	}
	s.ring = newSpanRing(cfg.TraceSpans, s.start)
	s.met = newServerMetrics(s)
	for id := 0; id < cfg.Devices; id++ {
		w, err := s.newWorker(id)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// Start launches the device workers and the oracle-of-last-resort loop.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	s.wg.Add(1)
	go s.degradeLoop()
}

// Shutdown drains gracefully: new requests are refused with 503, admitted
// requests are served to completion, then the pool stops. If ctx expires
// first, still-queued requests are answered 503 and the pool is stopped
// anyway; ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	idle := s.gate.Close()
	if !s.started.Load() {
		return nil
	}
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	close(s.stop)
	// On a forced stop, answer whatever is still queued so no handler
	// blocks forever.
	for {
		select {
		case rq := <-s.queue:
			rq.reply <- &reply{status: http.StatusServiceUnavailable, reason: ReasonDraining, retryAfter: 1}
		default:
			s.wg.Wait()
			return err
		}
	}
}

// healthyDevices counts devices whose breaker is closed.
func (s *Server) healthyDevices() int {
	n := 0
	for _, w := range s.workers {
		if w.brk.State() == breakerClosed {
			n++
		}
	}
	return n
}

// PageRank's parameters when a query names none. Width sweeps always tune
// on them.
const (
	defaultIterations = 20
	defaultDamping    = 0.85
)

// request is one admitted query traveling from handler to worker.
type request struct {
	ctx      context.Context
	algo     string
	graph    *NamedGraph
	src      graph.VertexID
	k        int // 0 = the snapshot's tuned width
	iters    int
	damping  float64
	full     bool
	tenant   string
	cacheKey string // "" = uncacheable
	enqueued time.Time
	reply    chan *reply
}

// reply is the worker's answer. Exactly one reply is sent per admitted
// request (the channel is buffered so workers never block on it).
type reply struct {
	status     int
	resp       *QueryResponse
	reason     string
	retryAfter int // seconds; 0 = no header
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Algo is one of "bfs", "sssp", "pagerank", "cc".
	Algo string `json:"algo"`
	// Graph names a pre-loaded graph.
	Graph string `json:"graph"`
	// Tenant is the quota accounting key (default "anon").
	Tenant string `json:"tenant,omitempty"`
	// Source is the BFS/SSSP source vertex; omitted picks a seed in the
	// graph's largest out-component.
	Source *int32 `json:"source,omitempty"`
	// K is the virtual-warp width (power of two up to the warp width;
	// omitted runs at the graph snapshot's tuned width for the algorithm).
	K int `json:"k,omitempty"`
	// Iterations bounds PageRank power iteration (default 20).
	Iterations int `json:"iterations,omitempty"`
	// Damping is the PageRank damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// DeadlineMillis is the client's end-to-end budget; the server clamps
	// it to MaxDeadline and propagates it into kernel launch budgets.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Full includes the per-vertex output vector in the response.
	Full bool `json:"full,omitempty"`
	// NoCache bypasses the result cache.
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryResponse is the 200 body.
type QueryResponse struct {
	Algo  string `json:"algo"`
	Graph string `json:"graph"`
	Epoch int64  `json:"epoch"`
	// Engine is "gpu", "oracle", or "cache".
	Engine string `json:"engine"`
	// Degraded is true when the device computation failed and the answer
	// came from the CPU oracle.
	Degraded bool `json:"degraded"`
	Cached   bool `json:"cached"`
	// Device is the pool slot that served the query (-1 for oracle/cache).
	Device  int      `json:"device"`
	Retries int      `json:"retries,omitempty"`
	Faults  []string `json:"faults,omitempty"`

	QueueWaitMillis float64 `json:"queue_wait_ms"`
	ExecMillis      float64 `json:"exec_ms"`

	Result ResultPayload `json:"result"`
}

// ResultPayload is the algorithm output. Scalar summaries are always
// present for the relevant algorithm; the per-vertex vector appears only
// with Full.
type ResultPayload struct {
	Iterations int `json:"iterations,omitempty"`
	// BFS
	Depth   int32 `json:"depth,omitempty"`
	Reached int   `json:"reached,omitempty"`
	// SSSP
	MaxFiniteDist int32 `json:"max_finite_dist,omitempty"`
	// CC
	Components int `json:"components,omitempty"`
	// PageRank
	RankSum   float64 `json:"rank_sum,omitempty"`
	TopVertex int32   `json:"top_vertex,omitempty"`
	// SimCycles totals simulated device cycles (0 for oracle answers).
	SimCycles int64 `json:"sim_cycles,omitempty"`
	// K is the virtual-warp width the device ran at: the query's own, or
	// the snapshot's tuned width (0 for oracle answers).
	K int `json:"k,omitempty"`

	Levels []int32   `json:"levels,omitempty"`
	Dist   []int32   `json:"dist,omitempty"`
	Labels []int32   `json:"labels,omitempty"`
	Ranks  []float32 `json:"ranks,omitempty"`
}

// MutationSpec is one edge insert or delete in a mutate request. Weight is
// used by inserts only (0 means weight 1); Del selects deletion.
type MutationSpec struct {
	Src    int32 `json:"src"`
	Dst    int32 `json:"dst"`
	Weight int32 `json:"weight,omitempty"`
	Del    bool  `json:"del,omitempty"`
}

// MutateRequest is the POST /v1/graphs/{name}/mutate body.
type MutateRequest struct {
	Mutations []MutationSpec `json:"mutations"`
}

// MutateResponse is the mutate 200 body: the new epoch plus what the batch
// did. Duplicate inserts, deletes of absent edges, and self-loops are
// counted no-ops, not errors (simple-graph semantics); an out-of-range
// endpoint rejects the whole batch with 400 and changes nothing.
type MutateResponse struct {
	Graph    string `json:"graph"`
	Epoch    int64  `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`

	Inserted      int `json:"inserted"`
	Deleted       int `json:"deleted"`
	DupInserts    int `json:"dup_inserts,omitempty"`
	AbsentDeletes int `json:"absent_deletes,omitempty"`
	SelfLoops     int `json:"self_loops,omitempty"`

	// PendingOps is the overlay size after this batch; Rebased reports that
	// the auto-compaction threshold folded it back into a fresh base.
	PendingOps int  `json:"pending_ops"`
	Rebased    bool `json:"rebased,omitempty"`
	// CacheInvalidated counts the result-cache entries this mutation dropped.
	CacheInvalidated int `json:"cache_invalidated"`
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/graphs/{name}/reload", s.handleReload)
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.handleMutate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "maxwarp serve: POST /v1/query, POST /v1/graphs/{name}/mutate, GET /v1/graphs, /healthz, /readyz, /metrics, /debug/trace\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// shed refuses a request with a typed reason, a Retry-After hint, and a
// shed-counter increment.
func (s *Server) shed(w http.ResponseWriter, algo string, status int, reason string, retryAfter int, msg string) {
	s.met.shed.With(reason).Inc()
	s.met.requests.With(orUnknown(algo), strconv.Itoa(status)).Inc()
	w.Header().Set("X-Maxwarp-Reason", reason)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, errorBody{Error: msg, Reason: reason})
}

func orUnknown(algo string) string {
	if algo == "" {
		return "unknown"
	}
	return algo
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := s.cfg.now()
	var q QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if !s.started.Load() || !s.gate.Enter() {
		s.shed(w, q.Algo, http.StatusServiceUnavailable, ReasonDraining, 1, "server is draining")
		return
	}
	defer s.gate.Leave()
	rq, status, err := s.admit(&q)
	if err != nil {
		s.met.requests.With(orUnknown(q.Algo), strconv.Itoa(status)).Inc()
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}

	// Quota gate.
	if ok, wait := s.quotas.Admit(rq.tenant); !ok {
		// Ceil to whole seconds, never below 1: Retry-After carries integer
		// seconds, so a sub-second wait must round up to 1 (0 is invalid and
		// clients treat it as "retry immediately", which defeats the quota),
		// while an exact multiple must not gain a spurious extra second.
		after := int((wait + time.Second - 1) / time.Second)
		if after < 1 {
			after = 1
		}
		s.shed(w, q.Algo, http.StatusTooManyRequests, ReasonQuota, after, fmt.Sprintf("tenant %q over quota", rq.tenant))
		return
	}

	// Deadline.
	deadline := s.cfg.DefaultDeadline
	if q.DeadlineMillis > 0 {
		deadline = time.Duration(q.DeadlineMillis) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	rq.ctx = ctx

	// Result cache.
	if rq.cacheKey != "" {
		if hit, ok := s.cache.Get(rq.cacheKey); ok {
			s.met.cacheHits.Inc()
			resp := &QueryResponse{
				Algo: rq.algo, Graph: rq.graph.Name, Epoch: rq.graph.Epoch,
				Engine: "cache", Cached: true, Device: -1,
				Result: *hit.payload,
			}
			s.finish(w, rq, t0, &reply{status: http.StatusOK, resp: resp})
			return
		}
		s.met.cacheMisses.Inc()
	}

	// Bounded admission queue: full = shed, never block the handler.
	rq.enqueued = s.cfg.now()
	select {
	case s.queue <- rq:
	default:
		s.shed(w, rq.algo, http.StatusTooManyRequests, ReasonQueueFull, 1, "admission queue full")
		return
	}
	// Answer no later than the deadline: the worker may still be busy with
	// the request (a width sweep is not bound by it), and its own reply
	// then lands in the buffered channel unread.
	var rep *reply
	select {
	case rep = <-rq.reply:
	case <-ctx.Done():
		select {
		case rep = <-rq.reply:
		default:
			rep = &reply{status: http.StatusTooManyRequests, reason: ReasonDeadline, retryAfter: 1}
		}
	}
	s.finish(w, rq, t0, rep)
}

// admit validates the query and resolves it against the graph registry.
func (s *Server) admit(q *QueryRequest) (*request, int, error) {
	if a := gpualgo.Lookup(q.Algo); a == nil || a.Summarize == nil {
		return nil, http.StatusBadRequest, fmt.Errorf("unknown algo %q (want %s)", q.Algo, strings.Join(gpualgo.Names(true), "|"))
	}
	ng, ok := s.graphs.Get(q.Graph)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q", q.Graph)
	}
	rq := &request{
		algo:    q.Algo,
		graph:   ng,
		k:       q.K,
		iters:   q.Iterations,
		damping: q.Damping,
		full:    q.Full,
		tenant:  q.Tenant,
		reply:   make(chan *reply, 1),
	}
	if rq.tenant == "" {
		rq.tenant = "anon"
	}
	// k 0 stays 0: the worker runs the snapshot's tuned width.
	if rq.k != 0 && (rq.k < 1 || rq.k&(rq.k-1) != 0 || rq.k > s.cfg.DeviceConfig.WarpWidth) {
		return nil, http.StatusBadRequest, fmt.Errorf("k=%d: want a power of two in [1,%d]", rq.k, s.cfg.DeviceConfig.WarpWidth)
	}
	if rq.iters == 0 {
		rq.iters = defaultIterations
	}
	if rq.iters < 1 || rq.iters > 1000 {
		return nil, http.StatusBadRequest, fmt.Errorf("iterations=%d: want [1,1000]", rq.iters)
	}
	if rq.damping == 0 {
		rq.damping = defaultDamping
	}
	if rq.damping <= 0 || rq.damping >= 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("damping=%g: want (0,1)", rq.damping)
	}
	if q.Source != nil {
		src := *q.Source
		if src < 0 || int(src) >= ng.G.NumVertices() {
			return nil, http.StatusBadRequest, fmt.Errorf("source=%d out of range [0,%d)", src, ng.G.NumVertices())
		}
		rq.src = src
	} else {
		rq.src = ng.DefaultSource()
	}
	if !q.NoCache {
		rq.cacheKey = fmt.Sprintf("%s|%d|%s|src=%d|k=%d|it=%d|d=%g|full=%v",
			ng.Name, ng.Epoch, rq.algo, rq.src, rq.k, rq.iters, rq.damping, rq.full)
	}
	return rq, http.StatusOK, nil
}

// finish writes the worker's reply and records metrics and a trace span.
func (s *Server) finish(w http.ResponseWriter, rq *request, t0 time.Time, rep *reply) {
	now := s.cfg.now()
	code := rep.status
	s.met.requests.With(rq.algo, strconv.Itoa(code)).Inc()
	span := Span{
		Algo: rq.algo, Graph: rq.graph.Name, Tenant: rq.tenant,
		Code: code, Device: -1, Start: t0,
	}
	if rep.resp != nil {
		rep.resp.QueueWaitMillis = roundMs(rep.resp.QueueWaitMillis)
		span.Engine = rep.resp.Engine
		span.Device = rep.resp.Device
		span.QueueWait = time.Duration(rep.resp.QueueWaitMillis * float64(time.Millisecond))
		span.Start = now.Add(-time.Duration(rep.resp.ExecMillis * float64(time.Millisecond)))
		span.Exec = now.Sub(span.Start)
		s.met.latency.With(rq.algo).Observe(now.Sub(t0).Microseconds())
		if rep.resp.Degraded {
			w.Header().Set("X-Maxwarp-Degraded", "true")
		}
		writeJSON(w, code, rep.resp)
	} else {
		s.met.shed.With(rep.reason).Inc()
		w.Header().Set("X-Maxwarp-Reason", rep.reason)
		if rep.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rep.retryAfter))
		}
		writeJSON(w, code, errorBody{Error: "request shed", Reason: rep.reason})
	}
	s.ring.Add(span)
}

func roundMs(ms float64) float64 { return float64(int64(ms*1000)) / 1000 }

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	type graphInfo struct {
		Name     string `json:"name"`
		Epoch    int64  `json:"epoch"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}
	var out []graphInfo
	for _, name := range s.graphs.Names() {
		ng, _ := s.graphs.Get(name)
		out = append(out, graphInfo{Name: ng.Name, Epoch: ng.Epoch, Vertices: ng.G.NumVertices(), Edges: ng.G.NumEdges()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ng, err := s.graphs.Reload(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	s.cfg.Logf("serve: reloaded graph %q (epoch %d, |V|=%d, |E|=%d)", name, ng.Epoch, ng.G.NumVertices(), ng.G.NumEdges())
	writeJSON(w, http.StatusOK, map[string]any{"name": ng.Name, "epoch": ng.Epoch})
}

// handleMutate applies one batch of streaming edge mutations to a named
// graph: the batch lands in the graph's overlay, the overlay is compacted
// into a fresh immutable snapshot at the next epoch, and exactly that
// graph's result-cache entries are dropped. Mutations respect the drain
// gate (503/draining is the only 5xx) but bypass the admission queue — they
// touch no device, only the registry lock.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var mq MutateRequest
	if err := json.NewDecoder(r.Body).Decode(&mq); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if !s.started.Load() || !s.gate.Enter() {
		s.shed(w, "mutate", http.StatusServiceUnavailable, ReasonDraining, 1, "server is draining")
		return
	}
	defer s.gate.Leave()
	if len(mq.Mutations) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "mutate: empty mutation batch"})
		return
	}
	if s.cfg.MutateMaxBatch > 0 && len(mq.Mutations) > s.cfg.MutateMaxBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("mutate: batch of %d exceeds limit %d", len(mq.Mutations), s.cfg.MutateMaxBatch),
		})
		return
	}
	batch := make([]graph.EdgeMutation, len(mq.Mutations))
	for i, m := range mq.Mutations {
		batch[i] = graph.EdgeMutation{Src: m.Src, Dst: m.Dst, Weight: m.Weight, Del: m.Del}
	}
	res, err := s.graphs.Mutate(name, batch, s.cfg.MutateRebaseThreshold)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownGraph) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	invalidated := s.cache.InvalidatePrefix(name + "|")
	s.met.mutations.With(name).Inc()
	s.met.mutatedEdges.Add(int64(res.Stats.Inserted + res.Stats.Deleted))
	s.met.cacheInvalidated.Add(int64(invalidated))
	s.cfg.Logf("serve: mutated graph %q: +%d/-%d edges (epoch %d, |E|=%d, pending %d, rebased=%v, %d cache entries dropped)",
		name, res.Stats.Inserted, res.Stats.Deleted, res.Graph.Epoch, res.Graph.G.NumEdges(), res.PendingOps, res.Rebased, invalidated)
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:    name,
		Epoch:    res.Graph.Epoch,
		Vertices: res.Graph.G.NumVertices(),
		Edges:    res.Graph.G.NumEdges(),

		Inserted:      res.Stats.Inserted,
		Deleted:       res.Stats.Deleted,
		DupInserts:    res.Stats.DupInserts,
		AbsentDeletes: res.Stats.AbsentDeletes,
		SelfLoops:     res.Stats.SelfLoops,

		PendingOps:       res.PendingOps,
		Rebased:          res.Rebased,
		CacheInvalidated: invalidated,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type devHealth struct {
		Device   int    `json:"device"`
		Breaker  string `json:"breaker"`
		Lost     bool   `json:"lost"`
		Served   int64  `json:"served"`
		Recycles int64  `json:"recycles"`
	}
	devs := make([]devHealth, 0, len(s.workers))
	for _, wk := range s.workers {
		devs = append(devs, devHealth{
			Device: wk.id, Breaker: wk.brk.State().String(),
			Lost: wk.lost.Load(), Served: wk.served.Load(), Recycles: wk.recycled.Load(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_s":  s.cfg.now().Sub(s.start).Seconds(),
		"draining":  s.draining.Load(),
		"queue":     len(s.queue),
		"devices":   devs,
		"healthy":   s.healthyDevices(),
		"cache_len": s.cache.Len(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || !s.started.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": ReasonDraining})
		return
	}
	mode := "full"
	if s.healthyDevices() == 0 {
		// Still ready: the oracle-of-last-resort loop answers queries.
		mode = "degraded-oracle-only"
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "mode": mode, "healthy_devices": s.healthyDevices()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	text, err := s.met.reg.PromText()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, text)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	data, err := s.ring.ChromeTraceJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// launchOpts converts the request's remaining deadline into per-launch
// supervision: MaxCycles clamps a single launch to the wall-clock budget at
// the configured service clock, and OnProgress cancels mid-flight once the
// context expires.
func (s *Server) launchOpts(ctx context.Context) simt.LaunchOpts {
	lo := simt.LaunchOpts{OnProgress: func(int64) error { return ctx.Err() }}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		mc := int64(float64(s.cfg.CyclesPerSecond) * rem.Seconds())
		if mc < 4096 {
			// Floor so a nearly expired deadline still maps to a valid
			// budget; OnProgress fires the actual cancellation.
			mc = 4096
		}
		lo.MaxCycles = mc
	}
	return lo
}

// sweepBudget is the cycle limit of a width sweep's first candidate: the
// longest deadline on the service clock, which bounds every query's
// launches too (see launchOpts).
func (s *Server) sweepBudget() int64 {
	return max(int64(float64(s.cfg.CyclesPerSecond)*s.cfg.MaxDeadline.Seconds()), 4096)
}

// errStopping cancels a width sweep when the server stops.
var errStopping = fmt.Errorf("serve: server stopping: %w", simt.ErrLaunchCancelled)

// stopping returns errStopping once Shutdown has stopped the workers.
func (s *Server) stopping() error {
	select {
	case <-s.stop:
		return errStopping
	default:
		return nil
	}
}

// faultClass buckets a launch error for the faults_total metric.
func faultClass(err error) string {
	var kf *simt.KernelFault
	switch {
	case errors.As(err, &kf):
		return kf.Kind.String()
	case errors.Is(err, simt.ErrDeviceLost):
		return "device_lost"
	case errors.Is(err, simt.ErrLaunchTimeout):
		return "timeout"
	case errors.Is(err, simt.ErrLaunchCancelled):
		return "cancelled"
	default:
		return "other"
	}
}
