package gpualgo

import (
	"sort"
	"testing"

	"maxwarp/internal/simt"
)

// TestAlgorithmTable checks the table's invariants: unique names, an oracle,
// a comparator and a run constructor on every entry, an error (not a panic)
// from Run without a graph, and a warplint file mapping that covers every
// entry exactly once.
func TestAlgorithmTable(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	d := simt.MustNewDevice(simt.DefaultConfig())
	for _, a := range Algorithms() {
		if seen[a.Name] {
			t.Errorf("duplicate entry %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
		if a.Oracle == nil || a.Compare == nil {
			t.Errorf("%s: missing oracle or comparator", a.Name)
		}
		if a.start == nil {
			t.Errorf("%s: missing run constructor", a.Name)
		}
		if got := Lookup(a.Name); got == nil || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %v", a.Name, got)
		}
		if _, err := a.Run(d, Input{}, Options{}); err == nil {
			t.Errorf("%s: ran without a graph", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup found an entry that does not exist")
	}
	var mapped []string
	for name := range warplintFiles {
		mapped = append(mapped, name)
	}
	sort.Strings(names)
	sort.Strings(mapped)
	if len(mapped) != len(names) {
		t.Fatalf("warplint files map %v, table has %v", mapped, names)
	}
	for i := range names {
		if mapped[i] != names[i] {
			t.Fatalf("warplint files map %v, table has %v", mapped, names)
		}
	}
}
