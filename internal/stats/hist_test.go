package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("accepted lo == hi")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("accepted lo > hi")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Underflow() != 1 {
		t.Fatalf("underflow = %d", h.Underflow())
	}
	if h.Overflow() != 2 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	if h.Count(0) != 2 { // 0 and 1.9
		t.Fatalf("bin 0 = %d", h.Count(0))
	}
	if h.Count(1) != 1 { // 2
		t.Fatalf("bin 1 = %d", h.Count(1))
	}
	if h.Count(2) != 1 { // 5
		t.Fatalf("bin 2 = %d", h.Count(2))
	}
	if h.Count(4) != 1 { // 9.99
		t.Fatalf("bin 4 = %d", h.Count(4))
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Fatalf("center 0 = %v", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Fatalf("center 4 = %v", c)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(0.6)
	h.Add(1.5)
	h.Add(-1)
	h.Add(5)
	out := h.Render(10)
	if !strings.Contains(out, "##########") {
		t.Fatalf("expected a full bar in:\n%s", out)
	}
	if !strings.Contains(out, "<lo") || !strings.Contains(out, ">=hi") {
		t.Fatalf("expected under/overflow lines in:\n%s", out)
	}
}

// normal draws a standard normal value with the Marsaglia polar method,
// discarding the second value of the pair.
func normal(s *rng.Stream) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

func TestBootstrapCoversTrueMean(t *testing.T) {
	s := rng.New(42)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = normal(s) + 10
	}
	lo, hi, err := Bootstrap(xs, 0.95, 500, s.Intn)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 10 || hi < 10 {
		t.Fatalf("95%% CI [%v, %v] misses true mean 10", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Fatalf("CI suspiciously wide: [%v, %v]", lo, hi)
	}
}

func TestBootstrapValidation(t *testing.T) {
	s := rng.New(1)
	if _, _, err := Bootstrap(nil, 0.95, 100, s.Intn); err == nil {
		t.Error("accepted empty sample")
	}
	if _, _, err := Bootstrap([]float64{1}, 1.5, 100, s.Intn); err == nil {
		t.Error("accepted bad confidence")
	}
	if _, _, err := Bootstrap([]float64{1}, 0.9, 5, s.Intn); err == nil {
		t.Error("accepted too few resamples")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "n", "value")
	tb.AddRow("10", "0.47")
	tb.AddRowf(100, 0.4812)
	out := tb.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "0.4812") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if row := tb.Row(0); row[0] != "10" || row[1] != "0.47" {
		t.Fatalf("Row(0) = %v", row)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")            // short row padded
	tb.AddRow("x", "y", "extra") // long row truncated
	if row := tb.Row(0); row[1] != "" {
		t.Fatalf("short row not padded: %v", row)
	}
	if row := tb.Row(1); len(row) != 2 {
		t.Fatalf("long row not truncated: %v", row)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow(`plain`, `has,comma`)
	tb.AddRow(`has"quote`, "has\nnewline")
	csv := tb.CSV()
	if !strings.Contains(csv, `"has,comma"`) {
		t.Fatalf("comma not quoted:\n%s", csv)
	}
	if !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("quote not escaped:\n%s", csv)
	}
}

func TestMeanStdFormat(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	a.Add(3)
	if got := MeanStd(&a, 2); got != "2.00 ± 1.00" {
		t.Fatalf("MeanStd = %q", got)
	}
}
