package bench

import (
	"fmt"
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// handoffGateCase is one gated run: an algorithm at virtual warp width k on
// a preset graph, with its handoff ceilings at ParallelSMs 1 and 2.
type handoffGateCase struct {
	preset string
	scale  int
	algo   string
	k      int
	max    [2]int64
}

// handoffGateCases are the served algorithms on the served graph families
// at scale 8, plus the CLI's masked BFS on the LiveJournal-like family.
// The ceilings are the counts measured when loads from frozen buffers began
// to run ahead; the comments hold the counts of the scheduler before that,
// which yielded at every load.
var handoffGateCases = []handoffGateCase{
	{"WikiTalk-like", 8, "bfs", 32, [2]int64{2261, 2307}},      // 2644, 2668
	{"WikiTalk-like", 8, "pagerank", 32, [2]int64{4665, 4790}}, // 8005, 8140
	{"WikiTalk-like", 8, "cc", 32, [2]int64{2826, 2878}},       // 5547, 5585
	{"WikiTalk-like", 8, "sssp", 32, [2]int64{3677, 3760}},     // 5971, 5991
	{"RoadNet-like", 8, "bfs", 32, [2]int64{15634, 15632}},     // 16394, 15770
	{"RoadNet-like", 8, "pagerank", 32, [2]int64{5210, 5360}},  // 9090, 9240
	{"RoadNet-like", 8, "cc", 32, [2]int64{27307, 27768}},      // 51115, 51576
	{"RoadNet-like", 8, "sssp", 32, [2]int64{19220, 19499}},    // 35344, 35563
	{"LiveJournal-like", 10, "bfs", 1, [2]int64{5292, 4036}},   // 8968, 6950
}

// handoffs runs c once in the given host mode on a fresh device and
// returns the device's token handoffs and the run's warp instructions.
func (c handoffGateCase) handoffs(parallelSMs int) (handoffs, instr int64, err error) {
	p, err := gengraph.PresetByName(c.preset)
	if err != nil {
		return 0, 0, err
	}
	g, err := p.Build(c.scale, 7)
	if err != nil {
		return 0, 0, err
	}
	a := gpualgo.Lookup(c.algo)
	if g, err = a.Graph(g); err != nil {
		return 0, 0, err
	}
	in := gpualgo.Input{
		G:          g,
		Weights:    gengraph.EdgeWeights(g, 16, 7),
		Src:        graph.LargestOutComponentSeed(g),
		Iterations: 5,
	}
	cfg := simt.DefaultConfig()
	cfg.ParallelSMs = parallelSMs
	d := simt.MustNewDevice(cfg)
	out, err := a.Run(d, in, gpualgo.Options{K: c.k})
	if err != nil {
		return 0, 0, err
	}
	return d.Handoffs(), out.Stats.Instructions, nil
}

// TestHandoffGate pins the simulator's host cost per algorithm: the token
// handoffs between goroutines one run takes (simt.Device.Handoffs). The
// count is deterministic within a host mode, so unlike wall-clock it can
// gate. A scheduler change may lower a count, never raise it; when a change
// lowers one, tighten its ceiling to the new count.
func TestHandoffGate(t *testing.T) {
	for _, c := range handoffGateCases {
		for i, mode := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%s/K%d/ParallelSMs%d", c.preset, c.algo, c.k, mode), func(t *testing.T) {
				h, instr, err := c.handoffs(mode)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d handoffs over %d warp instructions (%.3f per instruction)", h, instr, float64(h)/float64(instr))
				if h > c.max[i] {
					t.Errorf("%d handoffs, ceiling %d", h, c.max[i])
				}
			})
		}
	}
}
