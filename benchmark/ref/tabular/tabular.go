// Package tabular renders the column-oriented text tables in which
// navigation answers are presented (paper §4.1): each column has a
// header and an independent list of items, so columns may have
// different lengths — and, for the relation operator of §6.1, cells
// may hold any number of entities (the tables are "not necessarily in
// first normal form").
package tabular

import (
	"strings"
	"unicode/utf8"
)

// Column is one header plus its items.
type Column struct {
	Header string
	Items  []string
}

// Columnar is a table of independent columns (§4.1 style).
type Columnar struct {
	Title   string
	Columns []Column
}

// Add appends a column.
func (c *Columnar) Add(header string, items ...string) {
	c.Columns = append(c.Columns, Column{Header: header, Items: items})
}

// Render lays the columns out with padded widths.
func (c *Columnar) Render() string {
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteString("\n")
	}
	if len(c.Columns) == 0 {
		return b.String()
	}
	widths := make([]int, len(c.Columns))
	height := 0
	for i, col := range c.Columns {
		widths[i] = utf8.RuneCountInString(col.Header)
		for _, it := range col.Items {
			if n := utf8.RuneCountInString(it); n > widths[i] {
				widths[i] = n
			}
		}
		if len(col.Items) > height {
			height = len(col.Items)
		}
	}
	writeCell := func(s string, w int, last bool) {
		b.WriteString(s)
		if !last {
			for n := utf8.RuneCountInString(s); n < w+2; n++ {
				b.WriteString(" ")
			}
		}
	}
	for i, col := range c.Columns {
		writeCell(col.Header, widths[i], i == len(c.Columns)-1)
	}
	b.WriteString("\n")
	for i := range c.Columns {
		writeCell(strings.Repeat("-", widths[i]), widths[i], i == len(c.Columns)-1)
	}
	b.WriteString("\n")
	for row := 0; row < height; row++ {
		for i, col := range c.Columns {
			cell := ""
			if row < len(col.Items) {
				cell = col.Items[row]
			}
			writeCell(cell, widths[i], i == len(c.Columns)-1)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Rows is a conventional row-oriented table with multi-valued cells.
type Rows struct {
	Title   string
	Headers []string
	Body    [][][]string // Body[row][col] is a set of values
}

// AddRow appends a row; each cell is a list of values.
func (r *Rows) AddRow(cells ...[]string) {
	r.Body = append(r.Body, cells)
}

// Render lays out the rows; multi-valued cells are joined with ", ".
func (r *Rows) Render() string {
	var b strings.Builder
	if r.Title != "" {
		b.WriteString(r.Title)
		b.WriteString("\n")
	}
	flat := make([][]string, len(r.Body))
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for ri, row := range r.Body {
		flat[ri] = make([]string, len(r.Headers))
		for ci := range r.Headers {
			cell := ""
			if ci < len(row) {
				cell = strings.Join(row[ci], ", ")
			}
			flat[ri][ci] = cell
			if n := utf8.RuneCountInString(cell); n > widths[ci] {
				widths[ci] = n
			}
		}
	}
	writeCell := func(s string, w int, last bool) {
		b.WriteString(s)
		if !last {
			for n := utf8.RuneCountInString(s); n < w+2; n++ {
				b.WriteString(" ")
			}
		}
	}
	for i, h := range r.Headers {
		writeCell(h, widths[i], i == len(r.Headers)-1)
	}
	b.WriteString("\n")
	for i := range r.Headers {
		writeCell(strings.Repeat("-", widths[i]), widths[i], i == len(r.Headers)-1)
	}
	b.WriteString("\n")
	for _, row := range flat {
		for i, cell := range row {
			writeCell(cell, widths[i], i == len(r.Headers)-1)
		}
		b.WriteString("\n")
	}
	return b.String()
}
