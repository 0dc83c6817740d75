package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "speedups",
		Columns: []string{"graph", "speedup"},
		Notes:   []string{"a note"},
	}
	t.AddRow("rmat", "3.10x")
	t.AddRow("mesh, small", "0.90x")
	return t
}

func TestMarkdown(t *testing.T) {
	md := sample().Markdown()
	for _, want := range []string{
		"### E4: speedups",
		"| graph | speedup |",
		"| --- | --- |",
		"| rmat | 3.10x |",
		"a note",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestText(t *testing.T) {
	txt := sample().Text()
	if !strings.Contains(txt, "E4: speedups") || !strings.Contains(txt, "rmat") {
		t.Fatalf("text rendering wrong:\n%s", txt)
	}
	// Columns align: header and first row start the second column at the
	// same offset.
	lines := strings.Split(txt, "\n")
	var header, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "graph") {
			header = l
			row = lines[i+2]
			break
		}
	}
	if strings.Index(header, "speedup") != strings.Index(row, "3.10x") {
		t.Fatalf("columns misaligned:\n%s", txt)
	}
}

func TestCSVQuoting(t *testing.T) {
	csv := sample().CSV()
	if !strings.Contains(csv, `"mesh, small"`) {
		t.Fatalf("comma cell not quoted:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "graph,speedup\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	q := &Table{Columns: []string{"a"}}
	q.AddRow(`say "hi"`)
	if !strings.Contains(q.CSV(), `"say ""hi"""`) {
		t.Fatalf("quote escaping wrong:\n%s", q.CSV())
	}
}

func TestAddRowPads(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b", "c"}}
	tab.AddRow("1")
	tab.AddRow("1", "2", "3", "4")
	if len(tab.Rows[0]) != 3 || len(tab.Rows[1]) != 3 {
		t.Fatalf("rows not normalized: %v", tab.Rows)
	}
	if tab.Rows[1][2] != "3" {
		t.Fatalf("truncation wrong: %v", tab.Rows[1])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Fatal("F wrong")
	}
	if I(42) != "42" {
		t.Fatal("I wrong")
	}
}
