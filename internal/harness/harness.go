// Package harness provides the small amount of shared machinery the
// experiment drivers use: geometric means, speedup math, and plain-text
// rendering of the paper's tables and figures (as data series).
package harness

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Speedup returns base/t as a float ratio (higher is better when base is the
// reference execution time).
func Speedup(base, t uint64) float64 {
	if t == 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// Geomean returns the geometric mean of xs (0 for empty input; non-positive
// entries are skipped).
func Geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Series is one line of a figure: a name and a Y value per X position.
type Series struct {
	Name string
	Y    []float64
}

// Figure is a set of series over shared X labels, rendered as a text table
// (one row per X, one column per series).
type Figure struct {
	Title     string
	XLabel    string
	XTicks    []string
	YDecimals int // digits after the point in every Y cell
	Series    []Series
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	head := []string{f.XLabel}
	for _, s := range f.Series {
		head = append(head, s.Name)
	}
	rows := [][]string{head}
	for i, x := range f.XTicks {
		row := []string{x}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, strconv.FormatFloat(s.Y[i], 'f', f.YDecimals, 64))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return "== " + f.Title + " ==\n" + alignRows(rows)
}

// Table is a generic titled text table.
type Table struct {
	Title string
	Head  []string
	Rows  [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	rows := make([][]string, 0, 1+len(t.Rows))
	rows = append(rows, t.Head)
	rows = append(rows, t.Rows...)
	return "== " + t.Title + " ==\n" + alignRows(rows)
}

// alignRows renders rows as space-aligned columns. Rows may be ragged:
// column widths are the per-index maxima over the rows that have that
// column. Widths live in a slice indexed by column (this runs for every
// rendered table; a map would hash on every cell).
//
// A width is the longest cell's length in bytes, while a cell is padded by
// its length in runes, as fmt's %-*s pads, so a cell holding a multi-byte
// rune ends short of its column by its extra bytes.
func alignRows(rows [][]string) string {
	var widths []int
	for _, row := range rows {
		for i, cell := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	size := 0
	for _, row := range rows {
		for i := range row {
			size += widths[i] + 2
		}
		size++
	}
	var b strings.Builder
	b.Grow(size)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := widths[i] - utf8.RuneCountInString(cell); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order, for deterministic rendering.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
