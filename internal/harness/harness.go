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

// pow10 holds the scales FormatFixed computes exactly.
var pow10 = [...]uint64{1, 10, 100, 1000}

// FormatFixed returns strconv.FormatFloat(x, 'f', prec, 64). strconv
// formats every fixed-precision 'f' through its big-decimal path; for the
// precisions cells use this scales x's 53-bit mantissa by 10^prec (at most
// 2^63) and shifts it right, rounding half to even on the exact remainder,
// which is how strconv rounds. Other precisions, |x| >= 2^53, NaN and ±Inf
// go to strconv.
func FormatFixed(x float64, prec int) string {
	bits := math.Float64bits(x)
	exp, mant := int(bits>>52&0x7ff), bits&(1<<52-1)
	switch {
	case prec < 0 || prec >= len(pow10) || exp >= 1023+53:
		return strconv.FormatFloat(x, 'f', prec, 64)
	case exp == 0: // subnormal
		exp = 1
	default:
		mant |= 1 << 52
	}
	// |x| = mant * 2^(exp-1075), so x*10^prec is m / 2^sh. Past sh = 64,
	// m < 2^63 stays below half of 2^sh and rounds to 0 as it does at 64.
	m, sh := mant*pow10[prec], min(1075-exp, 64)
	q := m
	if sh > 0 {
		q = m >> sh
		if rem, half := m&(1<<sh-1), uint64(1)<<(sh-1); rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	var buf [24]byte // '-', 19 digits, '.'
	i := len(buf)
	for n := 0; n < prec; n++ {
		i--
		buf[i] = byte('0' + q%10)
		q /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + q%10)
		if q /= 10; q == 0 {
			break
		}
	}
	if bits>>63 != 0 {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
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
				row = append(row, FormatFixed(s.Y[i], f.YDecimals))
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
