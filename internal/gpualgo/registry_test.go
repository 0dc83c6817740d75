package gpualgo

import (
	"sort"
	"testing"
)

// TestAlgorithmTable checks the table's invariants: unique names, an oracle
// and a comparator on every entry, a summary on every resumable one, and a
// warplint file mapping that covers every entry exactly once.
func TestAlgorithmTable(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, a := range Algorithms() {
		if seen[a.Name] {
			t.Errorf("duplicate entry %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
		if a.Oracle == nil || a.Compare == nil {
			t.Errorf("%s: missing oracle or comparator", a.Name)
		}
		if (a.run == nil) == (a.resume == nil) {
			t.Errorf("%s: want exactly one of a one-shot run and a stepper", a.Name)
		}
		if a.Resumable() != (a.Summarize != nil) {
			t.Errorf("%s: a summary belongs to exactly the resumable entries", a.Name)
		}
		if got := Lookup(a.Name); got == nil || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %v", a.Name, got)
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
