// Package report renders experiment results as aligned text, markdown, and
// CSV tables — the repo's equivalent of the paper's tables and figure data
// series.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of results with optional footnotes.
type Table struct {
	// ID is the experiment identifier (e.g. "E4").
	ID string
	// Title describes what the table reproduces.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the cells, one slice per row, each len(Columns) long.
	Rows [][]string
	// Notes are rendered beneath the table.
	Notes []string
	// ChartSpec, when non-nil, describes how to render this table as a bar
	// chart (the repo's figure format).
	ChartSpec *ChartSpec
}

// ChartSpec names the columns a chart is built from.
type ChartSpec struct {
	// GroupCol labels bar groups, BarCol individual bars, ValueCol the
	// numeric cell ("1.50x" speedup cells parse too).
	GroupCol, BarCol, ValueCol int
	// Unit labels the value axis.
	Unit string
	// LogScale selects logarithmic bar lengths.
	LogScale bool
}

// Chartable reports whether the table carries a chart spec.
func (t *Table) Chartable() bool { return t.ChartSpec != nil }

// ToChart renders the table per its ChartSpec (nil spec yields a best-effort
// first-three-columns chart).
func (t *Table) ToChart() *Chart {
	spec := t.ChartSpec
	if spec == nil {
		spec = &ChartSpec{GroupCol: 0, BarCol: 1, ValueCol: len(t.Columns) - 1}
	}
	c := ChartFromTable(t, spec.GroupCol, spec.BarCol, spec.ValueCol)
	c.Unit = spec.Unit
	c.LogScale = spec.LogScale
	return c
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// Text renders the table with aligned columns for terminal output.
func (t *Table) Text() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only where needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given precision, trimming to a compact form.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// I formats an integer.
func I(v int64) string { return fmt.Sprintf("%d", v) }
