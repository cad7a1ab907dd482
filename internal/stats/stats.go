// Package stats renders aligned text tables and series for the experiment
// drivers (cmd/pgbench) and examples, mirroring the way the paper reports
// per-figure series.
package stats

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Table accumulates rows and renders them with aligned columns. It keeps
// each cell's value beside its rendering, so an export need not parse the
// rendering back.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	values  [][]any
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are rendered with %v (floats compactly).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	t.values = append(t.values, slices.Clone(cells))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the rendered data rows (cells as strings, in AddRow order)
// for machine-readable export; callers must not mutate the result.
func (t *Table) Rows() [][]string { return t.rows }

// Values returns the data rows' cells as AddRow was given them, beside
// Rows' renderings; callers must not mutate the result.
func (t *Table) Values() [][]any { return t.values }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// PrecisionRecall computes the paper's Figure 9b/14 quality metrics between
// a returned set and a truth set (both as index slices).
func PrecisionRecall(returned, truth []int) (precision, recall float64) {
	inTruth := make(map[int]bool, len(truth))
	for _, x := range truth {
		inTruth[x] = true
	}
	hit := 0
	for _, x := range returned {
		if inTruth[x] {
			hit++
		}
	}
	if len(returned) > 0 {
		precision = float64(hit) / float64(len(returned))
	} else {
		precision = 1 // empty answer has no false positives
	}
	if len(truth) > 0 {
		recall = float64(hit) / float64(len(truth))
	} else {
		recall = 1
	}
	return precision, recall
}
