// Package sym provides string interning for database entities.
//
// Every entity in a loosely structured database is a distinctly named
// member of the universe E (paper §2.1). Interning maps each distinct
// name to a dense uint32 ID so facts can be stored and joined as fixed
// size integer triples. A Table is safe for concurrent use.
package sym

import (
	"fmt"
	"sync"
)

// ID identifies an interned entity name. The zero ID is reserved and
// never returned by Intern; it is used by other packages as "no entity".
type ID uint32

// None is the reserved zero ID.
const None ID = 0

// Table interns strings to IDs and resolves IDs back to strings.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names []string // names[i] is the name of ID(i); names[0] is ""
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	return &Table{
		ids:   make(map[string]ID),
		names: []string{""},
	}
}

// Intern returns the ID for name, allocating one if necessary.
// The empty string is not a valid entity name and panics.
func (t *Table) Intern(name string) ID {
	if name == "" {
		panic("sym: empty entity name")
	}
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id = ID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns the ID for name, or (None, false) if name was never interned.
func (t *Table) Lookup(name string) (ID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the string for id. It panics on an ID that was never issued.
func (t *Table) Name(id ID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.names) || id == None {
		panic(fmt.Sprintf("sym: unknown ID %d", id))
	}
	return t.names[id]
}

// Len returns the number of interned names.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names) - 1
}

// Each calls fn for every interned (id, name) pair in allocation order.
// fn must not call methods on t that take the write lock.
func (t *Table) Each(fn func(ID, string) bool) {
	t.mu.RLock()
	names := t.names
	t.mu.RUnlock()
	for i := 1; i < len(names); i++ {
		if !fn(ID(i), names[i]) {
			return
		}
	}
}
