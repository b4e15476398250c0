package stats

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a simple column-aligned results table, the output format of every
// figure-reproduction harness in this repository. It renders either as
// aligned plain text (for terminals and bench logs) or as CSV. Beside each
// formatted cell it keeps the number the cell was formatted from, so a check
// reads a column by its header (Col) instead of parsing rendered text.
type Table struct {
	Title   string
	Headers []string
	rows    [][]Cell
}

// Cell is one table cell: the text it renders and the number the text was
// formatted from. A label cell keeps no number; its Num is zero.
type Cell struct {
	Text string
	Num  float64
}

// Label is a cell rendering s, with no number.
func Label(s string) Cell { return Cell{Text: s} }

// Num is a cell rendering v with the fmt verb format (say "%.4f").
func Num(format string, v float64) Cell { return Cell{Text: fmt.Sprintf(format, v), Num: v} }

// Int is a cell rendering v in decimal.
func Int[T ~int | ~int64](v T) Cell {
	return Cell{Text: strconv.FormatInt(int64(v), 10), Num: float64(v)}
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row of cells. Rows shorter than the header are padded with
// empty cells; longer rows are an error at render time, so they are
// truncated here to keep rendering total.
func (t *Table) Add(cells ...Cell) {
	row := make([]Cell, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRow appends a row of already-formatted label cells, padded or
// truncated as Add does.
func (t *Table) AddRow(cells ...string) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		row[i] = Label(c)
	}
	t.Add(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Col returns the cells of the column headed header, one per row in row
// order, or nil if the table has no such column.
func (t *Table) Col(header string) []Cell {
	for i, h := range t.Headers {
		if h == header {
			col := make([]Cell, len(t.rows))
			for r, row := range t.rows {
				col[r] = row[i]
			}
			return col
		}
	}
	return nil
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(texts(row))
	}
	return b.String()
}

// CSV returns the table in RFC-4180-ish CSV form (quoting cells containing
// commas, quotes, or newlines).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.rows {
		writeRow(texts(row))
	}
	return b.String()
}

// texts returns the rendered text of each cell of row.
func texts(row []Cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.Text
	}
	return out
}
