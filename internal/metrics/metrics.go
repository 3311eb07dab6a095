// Package metrics provides the small formatting and statistics toolkit the
// experiments and cmd/dlvmeasure share: aligned text tables matching
// the paper's table layouts, text-rendered series for figures, and unit
// helpers (durations, megabytes, percentages).
package metrics

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a titled, aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - utf8.RuneCountInString(cell)
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one line of a figure: (x, y) pairs with a name.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a titled collection of series, rendered as columns of numbers
// (one x column, one y column per series) for plotting or eyeballing.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// String renders the figure as aligned data columns.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	fmt.Fprintf(&b, "# x=%s y=%s\n", f.XLabel, f.YLabel)
	t := Table{Header: []string{f.XLabel}}
	for _, s := range f.Series {
		t.Header = append(t.Header, s.Name)
	}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := []interface{}{trimFloat(f.Series[0].X[i])}
			for _, s := range f.Series {
				if i < len(s.Y) {
					row = append(row, trimFloat(s.Y[i]))
				} else {
					row = append(row, "")
				}
			}
			t.AddRow(row...)
		}
	}
	b.WriteString(t.String())
	return b.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Seconds formats a duration as decimal seconds, the unit of Table 5.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// Megabytes formats a byte count as decimal megabytes, the unit of Table 5.
func Megabytes(n int64) string {
	return fmt.Sprintf("%.2f", float64(n)/1e6)
}

// Percent formats a ratio as a percentage.
func Percent(ratio float64) string {
	return fmt.Sprintf("%.2f%%", ratio*100)
}

// Ratio formats an overhead ratio (extra/baseline) as a percentage, the
// Table 5 "Ratio" columns.
func Ratio(extra, baseline float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return Percent(extra / baseline)
}
