package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Fatal("Speedup(200,100) != 2")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("Geomean(2,8) = %v", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if g := Geomean([]float64{-1, 0, 4}); g != 4 {
		t.Fatalf("non-positive entries must be skipped, got %v", g)
	}
}

func TestGeomeanProperty(t *testing.T) {
	// Geomean of equal positive values is that value.
	f := func(x float64, n uint8) bool {
		if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) || x > 1e100 {
			return true
		}
		xs := make([]float64, int(n%10)+1)
		for i := range xs {
			xs[i] = x
		}
		return math.Abs(Geomean(xs)-x) < 1e-6*x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		Title:     "T",
		XLabel:    "x",
		XTicks:    []string{"1", "2"},
		YDecimals: 2,
		Series: []Series{
			{Name: "a", Y: []float64{1.5, 2.5}},
			{Name: "b", Y: []float64{3}}, // short series: missing cell renders "-"
		},
	}
	out := fig.Render()
	for _, want := range []string{"== T ==", "x", "a", "b", "1.50", "2.50", "3.00", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title: "Tbl",
		Head:  []string{"k", "v"},
		Rows:  [][]string{{"a", "1"}, {"long-key", "22"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "== Tbl ==") || !strings.Contains(out, "long-key") {
		t.Fatalf("bad render:\n%s", out)
	}
	// Columns must align: every data line has the value column at the same
	// byte offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
	idx := strings.Index(lines[0], "v")
	for _, l := range lines[1:] {
		if len(l) <= idx {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
}

func TestAlignRowsRagged(t *testing.T) {
	// Ragged rows: widths come from the rows that have each column, longer
	// rows simply extend to the right, and no row panics or truncates.
	rows := [][]string{
		{"a"},
		{"bb", "c", "dddd"},
		{"e", "ffffff"},
		{},
		{"g", "h", "i", "j"},
	}
	got := alignRows(rows)
	// Note the trailing pad on "a": every cell, including a row's last, pads
	// to its column width — the golden reproduce output depends on this.
	want := "" +
		"a \n" +
		"bb  c       dddd\n" +
		"e   ffffff\n" +
		"\n" +
		"g   h       i     j\n"
	if got != want {
		t.Fatalf("alignRows ragged mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// TestStrconvMatchesFmt: the strconv forms and FormatFixed, which render
// cells and build cell keys, print what the fmt verbs they replace print,
// on the values where the two could part: signed zeros, NaN, infinities,
// ties that round to even or away, magnitudes past fmt's exponent switch
// for %v, and integer extremes.
func TestStrconvMatchesFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.005, 0.125, -0.125, 0.5, 1.5, 2.5, -2.675, 1e21, -1e21, 1e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.987654321}
	for _, x := range floats {
		for n := 0; n <= 2; n++ {
			want := fmt.Sprintf("%.*f", n, x)
			if got := strconv.FormatFloat(x, 'f', n, 64); got != want {
				t.Errorf("FormatFloat(%v, 'f', %d, 64) = %q, %%.%df prints %q", x, n, got, n, want)
			}
			if got := FormatFixed(x, n); got != want {
				t.Errorf("FormatFixed(%v, %d) = %q, %%.%df prints %q", x, n, got, n, want)
			}
		}
	}
	for _, x := range []uint64{0, 1, 999, math.MaxUint32, math.MaxUint64} {
		if got, want := strconv.FormatUint(x, 10), fmt.Sprintf("%d", x); got != want {
			t.Errorf("FormatUint(%d) = %q, %%d prints %q", x, got, want)
		}
	}
	for _, x := range []int{0, 1, -1, -42, math.MaxInt, math.MinInt} {
		if got, want := strconv.Itoa(x), fmt.Sprintf("%d", x); got != want {
			t.Errorf("Itoa(%d) = %q, %%d prints %q", x, got, want)
		}
		if got, want := strconv.Itoa(x), fmt.Sprint(x); got != want {
			t.Errorf("Itoa(%d) = %q, Sprint prints %q", x, got, want)
		}
	}
	for _, x := range []bool{false, true} {
		if got, want := strconv.FormatBool(x), fmt.Sprintf("%t", x); got != want {
			t.Errorf("FormatBool(%v) = %q, %%t prints %q", x, got, want)
		}
	}
}

// TestFormatFixedEdges: FormatFixed prints what strconv's 'f' prints at
// every precision on signed zeros, exact halves that round to even, values
// just below a half, the integers around 2^53 where it hands over to
// strconv, subnormals, NaN and the infinities; a few are spelled out.
func TestFormatFixedEdges(t *testing.T) {
	cases := []struct {
		x    float64
		prec int
		want string
	}{
		{0, 2, "0.00"},
		{math.Copysign(0, -1), 0, "-0"},
		{math.Copysign(0, -1), 2, "-0.00"},
		{-0.001, 2, "-0.00"},
		{0.125, 2, "0.12"},
		{0.375, 2, "0.38"},
		{2.5, 0, "2"},
		{-2.5, 0, "-2"},
		{3.5, 0, "4"},
		{9.995, 2, "9.99"}, // 9.99499999999999921...
		{1 << 52, 1, "4503599627370496.0"},
		{1<<53 - 1, 3, "9007199254740991.000"},
		{1 << 53, 2, "9007199254740992.00"},
		{math.SmallestNonzeroFloat64, 3, "0.000"},
		{math.NaN(), 2, "NaN"},
		{math.Inf(1), 1, "+Inf"},
		{math.Inf(-1), 0, "-Inf"},
	}
	for _, c := range cases {
		if got := FormatFixed(c.x, c.prec); got != c.want {
			t.Errorf("FormatFixed(%v, %d) = %q, want %q", c.x, c.prec, got, c.want)
		}
	}
	edges := []float64{0, math.Copysign(0, -1), -0.001, 0.125, 0.375, 2.5, 9.995, 0.0005, 0.005, 0.05, 0.5,
		1 << 52, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.Float64frombits(1<<52 - 1),
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, x := range edges {
		for _, x := range []float64{x, -x} {
			for prec := 0; prec <= 5; prec++ {
				if got, want := FormatFixed(x, prec), strconv.FormatFloat(x, 'f', prec, 64); got != want {
					t.Errorf("FormatFixed(%v, %d) = %q, strconv prints %q", x, prec, got, want)
				}
			}
		}
	}
}

// FuzzFormatFixed: on any float64 bit pattern, at precisions on both sides
// of FormatFixed's hand-over to strconv, it prints what strconv prints.
func FuzzFormatFixed(f *testing.F) {
	for _, x := range []float64{0, -0.001, 0.125, 2.5, 9.995, 1 << 53, math.SmallestNonzeroFloat64, math.NaN()} {
		f.Add(math.Float64bits(x), uint8(2))
	}
	f.Fuzz(func(t *testing.T, bits uint64, p uint8) {
		x, prec := math.Float64frombits(bits), int(p%6)
		if got, want := FormatFixed(x, prec), strconv.FormatFloat(x, 'f', prec, 64); got != want {
			t.Fatalf("FormatFixed(%v [%#x], %d) = %q, strconv prints %q", x, bits, prec, got, want)
		}
	})
}

// fmtAlignRows is alignRows as it was written with fmt: each cell through
// %-*s at its column's byte width.
func fmtAlignRows(rows [][]string) string {
	var widths []int
	for _, row := range rows {
		for i, cell := range row {
			for len(widths) <= i {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(cell))
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAlignRowsMatchesFmt: cells holding multi-byte runes pad by their rune
// count against byte widths, exactly as %-*s does.
func TestAlignRowsMatchesFmt(t *testing.T) {
	rows := [][]string{
		{"model", "layout", "4×4", "—"},
		{"strict", "—", "12", "x"},
		{"Figure 1 — CLOMP-TM", "8×", ""},
		{"a", "bb", "ccc", "dddd", "e×e"},
		{},
		{"××××××××", "—"},
	}
	if got, want := alignRows(rows), fmtAlignRows(rows); got != want {
		t.Fatalf("alignRows differs from %%-*s:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Fatalf("SortedKeys = %v", ks)
	}
}
