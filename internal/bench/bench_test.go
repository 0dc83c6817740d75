package bench

import (
	"strconv"
	"strings"
	"testing"
)

// smallCfg keeps harness tests fast while preserving the qualitative shapes.
func smallCfg() Config {
	cfg := Config{Scale: 8, Seed: 42}.WithDefaults()
	cfg.Device.NumSMs = 4
	cfg.Device.MaxWarpsPerSM = 16
	return cfg
}

func parseSpeed(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q: %v", cell, err)
	}
	return v
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", cell, err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("expected 22 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Fatalf("ByID(%s): %v", e.ID, err)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestE1Shapes(t *testing.T) {
	tables, err := E1GraphTable(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(tab.Rows))
	}
	// The suite is ordered most-skewed -> most-regular: first CV must exceed
	// last CV by a wide margin (columns: ... 5 = deg CV).
	first := parseF(t, tab.Rows[0][5])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][5])
	if first < 4*last+0.5 {
		t.Fatalf("skew ordering broken: first CV %.2f, last CV %.2f", first, last)
	}
}

func TestE2HistogramTotals(t *testing.T) {
	cfg := smallCfg()
	tables, err := E2DegreeHistogram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// Column sums must equal each workload's vertex count.
	e1, err := E1GraphTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < len(tab.Columns); col++ {
		sum := 0.0
		for _, row := range tab.Rows {
			sum += parseF(t, row[col])
		}
		wantV := parseF(t, e1[0].Rows[col-1][1])
		if sum != wantV {
			t.Fatalf("column %s sums to %v, want %v vertices", tab.Columns[col], sum, wantV)
		}
	}
}

func TestE4HeadlineShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Ks = []int{1, 4, 32}
	tables, err := E4WarpSizeSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// Columns: graph, baseline, K=4, K=32, best K, best speedup.
	bestSpeedCol := len(tab.Columns) - 1
	var skewedBest, meshBest float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "WikiTalk-like", "LiveJournal-like":
			if s := parseSpeed(t, row[bestSpeedCol]); s > skewedBest {
				skewedBest = s
			}
		case "RoadNet-like":
			meshBest = parseSpeed(t, row[bestSpeedCol])
		}
	}
	if skewedBest < 1.5 {
		t.Fatalf("warp-centric best speedup on skewed graphs only %.2fx", skewedBest)
	}
	if meshBest >= skewedBest {
		t.Fatalf("mesh speedup %.2fx should trail skewed %.2fx", meshBest, skewedBest)
	}
}

func TestE5TradeoffShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Ks = []int{1, 32}
	tables, err := E5UtilImbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// Columns: graph, K, simd util, useful util, cv, ...
	byGraph := map[string]map[string][]float64{}
	for _, row := range tab.Rows {
		if byGraph[row[0]] == nil {
			byGraph[row[0]] = map[string][]float64{}
		}
		byGraph[row[0]][row[1]] = []float64{parseF(t, row[2]), parseF(t, row[3]), parseF(t, row[4])}
	}
	for name, rows := range byGraph {
		k1, k32 := rows["1"], rows["32"]
		if k1 == nil || k32 == nil {
			t.Fatalf("%s: missing K rows", name)
		}
		for _, r := range [][]float64{k1, k32} {
			if r[0] < 0 || r[0] > 1 || r[1] < 0 || r[1] > r[0]+1e-9 {
				t.Errorf("%s: utilization out of bounds: %v", name, r)
			}
		}
	}
	// Workload imbalance falls with K on the skewed workload.
	if skew := byGraph["WikiTalk-like"]; skew["32"][2] > skew["1"][2] {
		t.Errorf("WikiTalk-like: imbalance CV rose from %.3f (K=1) to %.3f (K=32)",
			skew["1"][2], skew["32"][2])
	}
	// Useful ALU utilization falls with K on the regular low-degree workload
	// (the cost side of the paper's trade-off).
	if mesh := byGraph["RoadNet-like"]; mesh["32"][1] >= mesh["1"][1] {
		t.Errorf("RoadNet-like: useful utilization did not fall with K=32 (%.3f -> %.3f)",
			mesh["1"][1], mesh["32"][1])
	}
}

func TestE10CoalescingShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Ks = []int{1, 32}
	tables, err := E10Coalescing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	txns := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if txns[row[0]] == nil {
			txns[row[0]] = map[string]float64{}
		}
		txns[row[0]][row[1]] = parseF(t, row[3])
	}
	for name, m := range txns {
		if m["32"] >= m["1"] {
			t.Errorf("%s: txns/op did not improve (K=1 %.2f, K=32 %.2f)", name, m["1"], m["32"])
		}
	}
}

func TestA1ResidencyShape(t *testing.T) {
	cfg := smallCfg()
	tables, err := A1ResidencySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("too few residency points: %d", len(tab.Rows))
	}
	first := parseF(t, tab.Rows[0][1])              // 1 warp/SM
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1]) // max warps/SM
	if first <= last {
		t.Fatalf("no latency-hiding benefit: 1 warp/SM %.2f Mcycles vs max %.2f", first, last)
	}
}

func TestE6RunsOnSingleWorkload(t *testing.T) {
	// E6 across all workloads is slow; shape-check the hub-heavy case only
	// by reusing the registry function on a trimmed config.
	cfg := smallCfg()
	tables, err := E6DeferOutliers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	// Every swept kernel defers on some skewed-graph row.
	found := map[string]bool{}
	for _, row := range tab.Rows {
		if (row[0] == "WikiTalk-like" || row[0] == "LiveJournal-like") && row[5] != "0" {
			found[row[1]] = true
		}
	}
	for _, app := range []string{"bfs", "sssp", "cc", "pagerank"} {
		if !found[app] {
			t.Errorf("%s: no vertices were ever deferred on skewed workloads", app)
		}
	}
}

func TestE3AndE7AndE8AndE9Run(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass is slow")
	}
	cfg := smallCfg()
	for _, id := range []string{"E3", "E7", "E8", "E9", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "A2", "A3", "A4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no data", id)
		}
		// Render paths must not panic and must mention the ID.
		if !strings.Contains(tables[0].Markdown(), id) {
			t.Fatalf("%s: markdown missing id", id)
		}
		_ = tables[0].Text()
		_ = tables[0].CSV()
	}
}
