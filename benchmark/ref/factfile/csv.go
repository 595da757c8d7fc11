package factfile

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	lsdb "repro/benchmark/ref/lsdb"
)

// CSVOptions configures ImportCSV.
type CSVOptions struct {
	// KeyColumn names the column whose value identifies each row's
	// entity. Empty means rows are reified: a fresh entity
	// "<Prefix>-<n>" is minted per row (§2.6's E123 pattern for facts
	// that are really n-ary relationships).
	KeyColumn string
	// Prefix names minted row entities (default "ROW").
	Prefix string
	// Class, when non-empty, adds (rowEntity, ∈, Class) per row.
	Class string
	// SkipEmpty drops facts whose cell is empty (default behaviour;
	// set KeepEmpty to retain them).
	KeepEmpty bool
}

// ImportCSV loads tabular data into the heap of facts: the header row
// names the relationships, and every cell becomes one fact
// (rowEntity, column, cell). This is the migration path the paper's
// §1 motivates — structured sources join the loose database without
// schema mediation, and the relation operator (§6.1) can rebuild the
// table view afterwards.
func ImportCSV(db *lsdb.Database, r io.Reader, opts CSVOptions) (int, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("factfile: csv header: %w", err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
		if header[i] == "" {
			return 0, fmt.Errorf("factfile: csv column %d has an empty name", i+1)
		}
	}
	keyIdx := -1
	if opts.KeyColumn != "" {
		for i, h := range header {
			if h == opts.KeyColumn {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return 0, fmt.Errorf("factfile: key column %q not in header %v", opts.KeyColumn, header)
		}
	}
	prefix := opts.Prefix
	if prefix == "" {
		prefix = "ROW"
	}

	n := 0
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("factfile: csv row %d: %w", row+2, err)
		}
		row++

		var entity string
		if keyIdx >= 0 {
			entity = strings.TrimSpace(rec[keyIdx])
			if entity == "" {
				return n, fmt.Errorf("factfile: csv row %d: empty key", row+1)
			}
		} else {
			entity = fmt.Sprintf("%s-%d", prefix, row)
		}
		if opts.Class != "" {
			if err := db.Assert(entity, "∈", opts.Class); err != nil {
				return n, err
			}
			n++
		}
		for i, cell := range rec {
			if i == keyIdx {
				continue
			}
			cell = strings.TrimSpace(cell)
			if cell == "" && !opts.KeepEmpty {
				continue
			}
			if cell == "" {
				cell = "∇" // the most specified entity stands in for "unknown"
			}
			if err := db.Assert(entity, header[i], cell); err != nil {
				return n, err
			}
			n++
		}
	}
}
