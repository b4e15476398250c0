package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "n", "value")
	tb.AddRow("10", "0.47")
	tb.Add(Int(100), Num("%.4f", 0.48123))
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
	if col := tb.Col("n"); col[0].Text != "10" || col[1].Text != "100" {
		t.Fatalf("Col(n) = %v", col)
	}
}

// TestTableCol checks that a column keeps the numbers its cells were
// formatted from, that label cells keep none, and that an unknown header
// has no column.
func TestTableCol(t *testing.T) {
	tb := NewTable("", "name", "fraction", "count")
	tb.Add(Label("uniform"), Num("%.2f", 0.4762), Int(int64(7)))
	tb.Add(Label("dht"), Cell{Text: "0.55 ± 0.01", Num: 0.5508}, Int(12))
	frac := tb.Col("fraction")
	if len(frac) != 2 || frac[0] != (Cell{"0.48", 0.4762}) || frac[1].Num != 0.5508 {
		t.Fatalf("Col(fraction) = %v", frac)
	}
	if count := tb.Col("count"); count[0] != (Cell{"7", 7}) || count[1] != (Cell{"12", 12}) {
		t.Fatalf("Col(count) = %v", count)
	}
	if name := tb.Col("name"); name[1] != (Cell{Text: "dht"}) {
		t.Fatalf("Col(name) = %v", name)
	}
	if tb.Col("nope") != nil {
		t.Fatal("unknown header returned a column")
	}
	if col := NewTable("", "a").Col("a"); col == nil || len(col) != 0 {
		t.Fatalf("empty table's column = %#v, want empty and non-nil", col)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")            // short row padded
	tb.AddRow("x", "y", "extra") // long row truncated
	if b := tb.Col("b"); b[0].Text != "" || b[1].Text != "y" {
		t.Fatalf("column b = %v", b)
	}
	if got := tb.CSV(); got != "a,b\nonly,\nx,y\n" {
		t.Fatalf("CSV = %q", got)
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
