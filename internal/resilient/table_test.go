package resilient

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// TestEveryEntrySurvivesInjectedFaults holds every table entry to the retry
// contract: under transient aborts, and under bit-flips in any device buffer,
// Execute restores the checkpoint, retries the failed round and returns
// exactly the fault-free answer, stats, round count and note.
//
//   - A single fault on the first launch costs exactly one retry.
//   - Aborts every 2nd to 5th launch land on different launches of the
//     multi-launch rounds, so a round that moves host-side progress before
//     its last launch shows up as a double count.
//   - Bit-flips on the first launch, over many seeds, hit every buffer the
//     run allocates, so a buffer missing from its State keeps its flipped
//     bit and changes the answer.
//
// Entries with fewer launches than a plan's period see no fault under it;
// each plan must still fault some entry. Execute without a graph must
// return an error, not panic.
func TestEveryEntrySurvivesInjectedFaults(t *testing.T) {
	g := testGraph(t)
	opts := gpualgo.Options{K: 8}
	pol := Policy{MaxRetries: 8, NoFallback: true, Sleep: func(time.Duration) {}}
	type plan struct {
		name string
		plan simt.FaultPlan
	}
	plans := []plan{
		{"first-launch-abort", simt.FaultPlan{Seed: 3, AbortEvery: 1, MaxFaults: 1}},
		{"bit-flips", simt.FaultPlan{Seed: 3, BitFlipEvery: 3, MaxFaults: 4}},
	}
	for every := 2; every <= 5; every++ {
		plans = append(plans, plan{fmt.Sprintf("aborts-every-%d", every), simt.FaultPlan{Seed: 3, AbortEvery: every, MaxFaults: 4}})
	}
	for seed := uint64(1); seed <= 24; seed++ {
		plans = append(plans, plan{fmt.Sprintf("first-launch-bit-flip-seed-%d", seed), simt.FaultPlan{Seed: seed, BitFlipEvery: 1, MaxFaults: 1}})
	}
	retries := make(map[string]int)
	for _, a := range gpualgo.Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			view, err := a.Graph(g)
			if err != nil {
				t.Fatal(err)
			}
			in := gpualgo.Input{
				G: view, Weights: gengraph.EdgeWeights(view, 16, 5), Src: 0,
				BCSources: []graph.VertexID{0, 1}, MSBFSSources: []graph.VertexID{0, 1},
				Iterations: 5, CoreK: 2, Seed: 42, Samples: 2,
			}
			if _, _, err := Execute(newTestDevice(t), &a, gpualgo.Input{}, opts, pol); err == nil {
				t.Fatal("Execute ran without a graph")
			}
			want, err := a.Run(newTestDevice(t), in, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				d := newTestDevice(t)
				plan := p.plan
				d.SetFaultPlan(&plan)
				got, out, err := Execute(d, &a, in, opts, pol)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				retries[p.name] += out.Retries
				if p.plan.MaxFaults == 1 && out.Retries != 1 {
					t.Errorf("%s: %d retries, want 1", p.name, out.Retries)
				}
				if !reflect.DeepEqual(got.Value, want.Value) {
					t.Errorf("%s: answer differs from the fault-free run", p.name)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("%s: stats differ from the fault-free run: %d cycles, want %d", p.name, got.Stats.Cycles, want.Stats.Cycles)
				}
				if got.Rounds != want.Rounds || got.Note != want.Note {
					t.Errorf("%s: %d rounds [%s], want %d [%s]", p.name, got.Rounds, got.Note, want.Rounds, want.Note)
				}
			}
		})
	}
	for _, p := range plans {
		if retries[p.name] == 0 {
			t.Errorf("%s: no entry was faulted; the plan is vacuous", p.name)
		}
	}
}
