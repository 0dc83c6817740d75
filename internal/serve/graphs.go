// Package serve is the fault-tolerant graph-analytics service layer: a
// stdlib net/http daemon that owns a pool of simulated devices and
// multiplexes concurrent BFS/SSSP/PageRank/CC queries over named pre-loaded
// graphs. Robustness is the point — the package layers a bounded admission
// queue with load shedding, per-tenant token-bucket quotas, request
// deadlines propagated into kernel launch budgets, per-device circuit
// breakers that route around sick devices (degrading to the CPU oracle when
// the whole pool is unhealthy), a result cache keyed by graph epoch, and
// graceful drain on shutdown. See docs/SERVICE.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
)

// ErrUnknownGraph reports a reload or mutation against a name the registry
// does not hold (the handler maps it to 404, unlike mutation-content errors
// which are the client's fault and map to 400).
var ErrUnknownGraph = errors.New("serve: unknown graph")

// GraphSpec names one graph the server pre-loads at startup: either a
// synthetic preset at a scale, or a DIMACS file.
type GraphSpec struct {
	// Name is the handle queries use.
	Name string
	// Preset is a gengraph preset name ("LiveJournal-like", …); exclusive
	// with File.
	Preset string
	// Scale is the preset size exponent (|V| ≈ 2^Scale).
	Scale int
	// Seed seeds the generator (and the edge-weight synthesis). Zero picks
	// a fixed default so specs stay reproducible.
	Seed uint64
	// File is a DIMACS .gr path to load instead of generating.
	File string
}

// ParseGraphSpec parses the CLI form "name=Preset:scale[:seed]" or
// "name=@file.gr".
func ParseGraphSpec(arg string) (GraphSpec, error) {
	name, rest, ok := strings.Cut(arg, "=")
	if !ok || name == "" || rest == "" {
		return GraphSpec{}, fmt.Errorf("serve: graph spec %q: want name=Preset:scale or name=@file", arg)
	}
	spec := GraphSpec{Name: name}
	if strings.HasPrefix(rest, "@") {
		spec.File = strings.TrimPrefix(rest, "@")
		return spec, nil
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return GraphSpec{}, fmt.Errorf("serve: graph spec %q: want name=Preset:scale[:seed]", arg)
	}
	spec.Preset = parts[0]
	scale, err := strconv.Atoi(parts[1])
	if err != nil || scale < 1 || scale > 24 {
		return GraphSpec{}, fmt.Errorf("serve: graph spec %q: bad scale %q", arg, parts[1])
	}
	spec.Scale = scale
	if len(parts) == 3 {
		seed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return GraphSpec{}, fmt.Errorf("serve: graph spec %q: bad seed %q", arg, parts[2])
		}
		spec.Seed = seed
	}
	return spec, nil
}

// build materializes the spec. epoch perturbs the seed so Reload produces a
// fresh instance of the same regime.
func (s GraphSpec) build(epoch int64) (*NamedGraph, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 42
	}
	seed += uint64(epoch) * 0x9e3779b9

	var g *graph.CSR
	var weights []int32
	switch {
	case s.File != "":
		f, err := os.Open(s.File)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", s.Name, err)
		}
		defer f.Close()
		g, weights, err = graph.ReadDIMACS(f)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", s.Name, err)
		}
	case s.Preset != "":
		p, err := gengraph.PresetByName(s.Preset)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", s.Name, err)
		}
		g, err = p.Build(s.Scale, seed)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", s.Name, err)
		}
	default:
		return nil, fmt.Errorf("serve: graph %q: spec has neither Preset nor File", s.Name)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("serve: graph %q: %w", s.Name, err)
	}
	if weights == nil {
		weights = gengraph.EdgeWeights(g, 16, seed^0x5bf03635)
	}
	return &NamedGraph{Name: s.Name, Epoch: epoch, G: g, Weights: weights}, nil
}

// NamedGraph is one immutable loaded graph. Reload and Mutate swap the
// whole value, so the lazily derived views (default source, symmetrized
// copy, tuned widths) are computed at most once per epoch and never race.
type NamedGraph struct {
	// Name is the registry handle.
	Name string
	// Epoch counts reloads; it is part of every cache key, so a reload
	// implicitly invalidates stale cached results.
	Epoch int64
	// G is the graph in CSR form.
	G *graph.CSR
	// Weights are per-edge weights for SSSP (generated when the source had
	// none).
	Weights []int32

	srcOnce sync.Once
	src     graph.VertexID
	symOnce sync.Once
	sym     *graph.CSR
	symErr  error
	// tuned holds one width sweep per algorithm (see tunedK); tuneMu
	// guards the map, never a sweep.
	tuneMu sync.Mutex
	tuned  map[string]*tuning
}

// tuning is one width sweep of a (snapshot, algorithm): done closes when
// the sweep ends, and k is its width when err is nil.
type tuning struct {
	done chan struct{}
	k    int
	err  error
}

// DefaultSource returns the query source used when the client does not pick
// one: a seed inside the largest out-component, so BFS/SSSP reach a
// meaningful fraction of the graph.
func (ng *NamedGraph) DefaultSource() graph.VertexID {
	ng.srcOnce.Do(func() { ng.src = graph.LargestOutComponentSeed(ng.G) })
	return ng.src
}

// Sym returns the symmetrized view used by connected components, computed
// once per epoch.
func (ng *NamedGraph) Sym() (*graph.CSR, error) {
	ng.symOnce.Do(func() { ng.sym, ng.symErr = ng.G.Symmetrize() })
	return ng.sym, ng.symErr
}

// tunedK returns the virtual-warp width algo's queries run at on this
// snapshot when they name none. The first caller runs sweep, which measures
// it; callers that arrive during a sweep wait for it, or for ctx, and later
// callers read the kept width. A failed sweep is its caller's error and is
// not kept: a waiter, or the next caller, sweeps again.
func (ng *NamedGraph) tunedK(ctx context.Context, algo string, sweep func() (int, error)) (int, error) {
	for {
		ng.tuneMu.Lock()
		t := ng.tuned[algo]
		if t == nil {
			t = &tuning{done: make(chan struct{})}
			if ng.tuned == nil {
				ng.tuned = make(map[string]*tuning)
			}
			ng.tuned[algo] = t
			ng.tuneMu.Unlock()
			t.k, t.err = sweep()
			if t.err != nil {
				ng.tuneMu.Lock()
				delete(ng.tuned, algo)
				ng.tuneMu.Unlock()
			}
			close(t.done)
			return t.k, t.err
		}
		ng.tuneMu.Unlock()
		select {
		case <-t.done:
			if t.err == nil {
				return t.k, nil
			}
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// inheritWidths gives a mutated snapshot the widths its parent finished
// tuning. A mutation batch is a small edit, which rarely moves a graph's
// best width, while a fresh sweep per epoch would make a mutation stream
// pay one on nearly every query. A width still being swept on the parent
// is not inherited: the new snapshot sweeps it itself.
func (ng *NamedGraph) inheritWidths(parent *NamedGraph) {
	parent.tuneMu.Lock()
	defer parent.tuneMu.Unlock()
	for algo, t := range parent.tuned {
		select {
		case <-t.done:
			if ng.tuned == nil {
				ng.tuned = make(map[string]*tuning)
			}
			ng.tuned[algo] = t
		default:
		}
	}
}

// Registry holds the server's named graphs.
type Registry struct {
	mu     sync.RWMutex
	specs  map[string]GraphSpec
	byName map[string]*NamedGraph
	order  []string
	// deltas holds the streaming-mutation overlay per graph, created lazily
	// on the first Mutate and discarded on Reload. The overlay accumulates
	// batches; each batch is compacted into a fresh immutable NamedGraph so
	// queries never see a half-applied state.
	deltas map[string]*graph.Delta
}

// LoadGraphs builds every spec eagerly so a bad spec fails startup, not the
// first query.
func LoadGraphs(specs []GraphSpec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no graphs configured")
	}
	r := &Registry{
		specs:  make(map[string]GraphSpec, len(specs)),
		byName: make(map[string]*NamedGraph, len(specs)),
		deltas: make(map[string]*graph.Delta),
	}
	for _, spec := range specs {
		if _, dup := r.specs[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph name %q", spec.Name)
		}
		ng, err := spec.build(0)
		if err != nil {
			return nil, err
		}
		r.specs[spec.Name] = spec
		r.byName[spec.Name] = ng
		r.order = append(r.order, spec.Name)
	}
	return r, nil
}

// Get returns the current epoch of the named graph.
func (r *Registry) Get(name string) (*NamedGraph, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ng, ok := r.byName[name]
	return ng, ok
}

// Names lists the registered graphs in declaration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Reload rebuilds the named graph with a perturbed seed and bumps its
// epoch. In-flight queries keep the epoch they resolved; new queries (and
// the result cache, which keys on epoch) see the fresh graph.
func (r *Registry) Reload(name string) (*NamedGraph, error) {
	r.mu.Lock()
	spec, ok := r.specs[name]
	old := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	ng, err := spec.build(old.Epoch + 1)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.byName[name] = ng
	// The reloaded instance is a fresh graph; accumulated mutations do not
	// carry over, so the next Mutate starts a new overlay from it.
	delete(r.deltas, name)
	r.mu.Unlock()
	return ng, nil
}

// MutateResult reports one applied mutation batch: the new immutable graph
// snapshot plus what the batch actually did to the overlay.
type MutateResult struct {
	// Graph is the fresh NamedGraph the registry now serves (epoch bumped).
	Graph *NamedGraph
	// Stats classifies the batch (effective inserts/deletes and no-ops).
	Stats graph.ApplyStats
	// Applied lists only the effective mutations, in batch order.
	Applied []graph.AppliedMutation
	// PendingOps is the overlay size after the batch (0 if it was rebased).
	PendingOps int
	// Rebased is true when the overlay exceeded the auto-compaction
	// threshold and was folded back into a fresh frozen base.
	Rebased bool
	// DeltaEpoch counts applied batches since the overlay was created.
	DeltaEpoch int64
}

// Mutate applies one batch of edge mutations to the named graph's overlay,
// compacts it into a fresh immutable NamedGraph at the next epoch, and swaps
// it in. Whole-batch validation happens first, so a bad mutation leaves both
// the overlay and the served graph untouched. When the overlay's pending-op
// count exceeds rebaseThreshold (>0), it is rebased onto the compacted
// snapshot so per-vertex extension lists stay short under sustained streams.
//
// In-flight queries keep the snapshot they resolved; the caller is
// responsible for dropping that graph's result-cache entries.
func (r *Registry) Mutate(name string, batch []graph.EdgeMutation, rebaseThreshold int) (*MutateResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	dl, ok := r.deltas[name]
	if !ok {
		var err error
		dl, err = graph.NewDelta(old.G, old.Weights)
		if err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", name, err)
		}
		r.deltas[name] = dl
	}
	applied, stats, err := dl.Apply(batch)
	if err != nil {
		return nil, fmt.Errorf("serve: graph %q: %w", name, err)
	}
	g, w, err := dl.Compact()
	if err != nil {
		return nil, fmt.Errorf("serve: graph %q: %w", name, err)
	}
	rebased := false
	if rebaseThreshold > 0 && dl.PendingOps() > rebaseThreshold {
		if err := dl.Rebase(); err != nil {
			return nil, fmt.Errorf("serve: graph %q: %w", name, err)
		}
		rebased = true
	}
	ng := &NamedGraph{Name: name, Epoch: old.Epoch + 1, G: g, Weights: w}
	ng.inheritWidths(old)
	r.byName[name] = ng
	return &MutateResult{
		Graph:      ng,
		Stats:      stats,
		Applied:    applied,
		PendingOps: dl.PendingOps(),
		Rebased:    rebased,
		DeltaEpoch: dl.Epoch(),
	}, nil
}
