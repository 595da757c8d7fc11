package lsdb

import (
	"fmt"
	"strings"

	"repro/benchmark/ref/fact"
)

// Tx batches assertions and retractions so they can be validated and
// rolled back as a unit. The paper leaves "update of data" open (§7);
// this is the minimal atomic-update layer a multi-fact change needs:
// intermediate states may be contradictory, only the final state is
// checked.
type Tx struct {
	db       *Database
	inserted []fact.Fact // facts this tx actually added (to undo)
	deleted  []fact.Fact // facts this tx actually removed (to undo)
	done     bool
}

// Batch runs fn inside a transaction. If fn returns an error, or the
// database is strict and the resulting closure has contradictions the
// initial state did not have, every change is rolled back and the
// error returned. Batch is not concurrent-safe with other writers of
// the same Database.
func (db *Database) Batch(fn func(tx *Tx) error) error {
	preExisting := make(map[[2]fact.Fact]struct{})
	if db.strict {
		for _, v := range db.eng.Check() {
			preExisting[[2]fact.Fact{v.A, v.B}] = struct{}{}
		}
	}
	tx := &Tx{db: db}
	if err := fn(tx); err != nil {
		tx.rollback()
		return err
	}
	if db.strict {
		var msgs []string
		for _, v := range db.eng.Check() {
			if _, old := preExisting[[2]fact.Fact{v.A, v.B}]; !old {
				msgs = append(msgs, v.Format(db.u))
			}
		}
		if len(msgs) > 0 {
			tx.rollback()
			return fmt.Errorf("lsdb: transaction violates integrity: %s", strings.Join(msgs, "; "))
		}
	}
	tx.done = true
	return nil
}

// Assert adds a fact within the transaction (no per-fact integrity
// check; the whole batch is checked at commit).
func (tx *Tx) Assert(s, r, t string) {
	tx.assertFact(tx.db.u.NewFact(s, r, t))
}

func (tx *Tx) assertFact(f fact.Fact) {
	if tx.done {
		panic("lsdb: use of finished transaction")
	}
	if tx.db.st.Insert(f) {
		tx.inserted = append(tx.inserted, f)
	}
}

// Retract removes a stored fact within the transaction.
func (tx *Tx) Retract(s, r, t string) bool {
	if tx.done {
		panic("lsdb: use of finished transaction")
	}
	f := tx.db.u.NewFact(s, r, t)
	if tx.db.st.Delete(f) {
		tx.deleted = append(tx.deleted, f)
		return true
	}
	return false
}

// rollback undoes the recorded changes in reverse order.
func (tx *Tx) rollback() {
	for i := len(tx.inserted) - 1; i >= 0; i-- {
		tx.db.st.Delete(tx.inserted[i])
	}
	for i := len(tx.deleted) - 1; i >= 0; i-- {
		tx.db.st.Insert(tx.deleted[i])
	}
	tx.inserted, tx.deleted = nil, nil
	tx.done = true
}
