package gpualgo

import (
	"testing"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// TestRoundsAllocateNothing checks that cc, sssp and pagerank take their
// registers once per kernel invocation, not once per ForEach round. On one
// warp at K=32 every round deals one vertex, so a launch over a 128-vertex
// ring runs 128 rounds and one over a 16-vertex ring 16; both must allocate
// exactly as much. The register file holds 64 vectors of each type per
// invocation, and a kernel that takes registers per round falls back to
// make once it has used them up. Each ring gets a fresh device with the
// same buffers, both fit one shadow page, and every launch starts from the
// same buffer contents. AllocsPerRun counts every goroutine's allocations,
// so it averages over 20 launches: a stray allocation from another test's
// goroutine (seen under -race) then truncates away, while registers taken
// per round add hundreds to every launch.
func TestRoundsAllocateNothing(t *testing.T) {
	ring := func(n int) *graph.CSR {
		edges := make([]graph.Edge, n)
		for v := range edges {
			edges[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	sched := vwarp.Schedule{K: 32}
	kernels := map[string]func(d *simt.Device, g *graph.CSR) (simt.Kernel, func()){
		"cc": func(d *simt.Device, g *graph.CSR) (simt.Kernel, func()) {
			n := g.NumVertices()
			labels, changed := d.AllocI32("labels", n), d.AllocI32("changed", 1)
			return ccPropagateKernel(Upload(d, g), labels, changed, sched), func() {
				for v := range labels.Data() {
					labels.Data()[v] = int32(v)
				}
				changed.Data()[0] = 0
			}
		},
		"sssp": func(d *simt.Device, g *graph.CSR) (simt.Kernel, func()) {
			// Every distance is finite, so every round relaxes its row.
			weights := make([]int32, g.NumEdges())
			for j := range weights {
				weights[j] = 1
			}
			dg, err := UploadWeighted(d, g, weights)
			if err != nil {
				t.Fatal(err)
			}
			dist, changed := d.AllocI32("dist", g.NumVertices()), d.AllocI32("changed", 1)
			return ssspRelaxKernel(dg, dist, changed, sched, Options{}), func() {
				clear(dist.Data())
				changed.Data()[0] = 0
			}
		},
		"pagerank": func(d *simt.Device, g *graph.CSR) (simt.Kernel, func()) {
			n := g.NumVertices()
			contrib, next := d.AllocF32("contrib", n), d.AllocF32("next", n)
			return prPullKernel(Upload(d, g.Reverse()), contrib, next, 0.15/float32(n), sched, PageRankOptions{Damping: 0.85}), func() {
				for v := range contrib.Data() {
					contrib.Data()[v] = 1 / float32(n)
				}
				clear(next.Data())
			}
		},
	}
	for _, name := range []string{"cc", "sssp", "pagerank"} {
		t.Run(name, func(t *testing.T) {
			allocs := func(n int) float64 {
				d := simt.MustNewDevice(simt.DefaultConfig())
				lc := simt.LaunchConfig{Blocks: 1, ThreadsPerBlock: d.Config().WarpWidth}
				kern, reset := kernels[name](d, ring(n))
				return testing.AllocsPerRun(20, func() {
					reset()
					if _, err := d.Launch(lc, kern); err != nil {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(16), allocs(128)
			if few != many {
				t.Errorf("allocs per launch: %v over 16 rounds, %v over 128 rounds", few, many)
			}
		})
	}
}
