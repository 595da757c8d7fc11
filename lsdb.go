// Package lsdb is a loosely structured database: an implementation of
// the architecture of Amihai Motro's "Browsing in a Loosely
// Structured Database" (SIGMOD 1984).
//
// A database is a heap of facts — named pairs of entities such as
// (JOHN, EARNS, $25000) — plus a set of conjunctive rules serving
// both as inference rules and integrity constraints. There is no
// schema: "schema" relationships like (EMPLOYEE, EARNS, SALARY) and
// "data" relationships are stored and retrieved uniformly. Retrieval
// is by a predicate-logic query language whose atomic formulas are
// templates, and by two browsing styles that assume no knowledge of
// the database's organization:
//
//   - Navigation: iterative neighborhood exploration with templates
//     like (JOHN, *, *), including composed relationship paths.
//   - Probing: hit-and-miss querying with automatic retraction — a
//     failed query is automatically broadened along the
//     generalization hierarchy, and every success is reported with
//     the generalization that produced it.
//
// Quick start:
//
//	db := lsdb.New()
//	db.MustAssert("JOHN", "in", "EMPLOYEE")
//	db.MustAssert("EMPLOYEE", "EARNS", "SALARY")
//	rows, _ := db.Query("(JOHN, EARNS, ?what)")
//	// rows.Tuples == [["SALARY"]]   (inference by membership)
package lsdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/browse"
	"repro/internal/compose"
	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/probe"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/tabular"
	"repro/internal/views"
	"repro/internal/virtual"
)

// Options configures a Database.
type Options struct {
	// Strict makes every Assert verify that the new fact keeps the
	// database closure contradiction-free (§2.6), rejecting the
	// insertion otherwise. Strict asserts recompute the closure and
	// are expensive; bulk loads should assert loosely and call
	// Check once.
	Strict bool
	// CompositionLimit is the §6.1 limit(n) on composition chain
	// length: 1 disables composition, n≥2 allows chains of up to n
	// facts, Unlimited allows any simple path. Default 3.
	CompositionLimit int
	// LogPath, when non-empty, attaches an append-only durability log
	// at that path: existing records are replayed on open and every
	// mutation is appended.
	LogPath string
	// SyncPolicy selects the durability point of logged mutations.
	// The zero value is SyncAlways: Assert/Retract return only after
	// the record is fsynced (concurrent writers are group-committed).
	// SyncInterval(d) bounds the crash-loss window to d; SyncNever is
	// for bulk loads. Ignored without LogPath.
	SyncPolicy SyncPolicy
	// CheckpointEvery, when positive, checkpoints automatically: once
	// the log holds more than this many records AND at least twice as
	// many records as there are live facts, the next mutation compacts
	// it atomically to the live fact set (after writing a snapshot to
	// CheckpointSnapshot, if set). The second condition means a
	// compaction always reclaims at least half the log, so a log of
	// inserts only, which holds one record per live fact, is never
	// compacted, however long it grows. Ignored without LogPath.
	CheckpointEvery int
	// CheckpointSnapshot, when non-empty, is a path that receives an
	// atomic full snapshot at every automatic checkpoint: a compacted
	// log at the checkpoint's LSN, which LogPath can open.
	CheckpointSnapshot string
	// SubgoalCacheEntries caps the cross-query subgoal cache at this
	// many entries (0 keeps the engine default). The multi-tenant
	// daemon sets it per database so one tenant's scan-heavy workload
	// cannot claim unbounded cache memory.
	SubgoalCacheEntries int
}

// SyncPolicy re-exports the store's durability policy type.
type SyncPolicy = store.SyncPolicy

// Durability policies for Options.SyncPolicy.
var (
	// SyncAlways acknowledges a write only after it is fsynced.
	SyncAlways = store.SyncAlways
	// SyncNever syncs only on explicit Sync, Compact or Close.
	SyncNever = store.SyncNever
)

// SyncInterval returns a policy that syncs in the background every d,
// bounding the crash-loss window to at most d of acknowledged writes.
func SyncInterval(d time.Duration) SyncPolicy { return store.SyncInterval(d) }

// LogStats re-exports the store's durability counters.
type LogStats = store.LogStats

// ErrNotDurable wraps log failures surfaced by Assert and RetractFact:
// the mutation is applied in memory but its durability point was not
// reached, and no later write will be acknowledged durable either.
var ErrNotDurable = errors.New("lsdb: write applied in memory but not durable")

// Unlimited is the composition limit value meaning "no bound" (§6.1 n=∞).
const Unlimited = compose.Unlimited

// Database is a loosely structured database.
//
// Concurrency: any number of goroutines may query, navigate and probe
// concurrently, including while other goroutines mutate. The
// inference engine publishes each materialized closure as an
// immutable, sealed snapshot through an atomic pointer: warm reads
// take no locks at all, and readers that overlap a mutation see
// either the old or the new closure, never a partial one. Mutations
// (Assert, Retract, Batch, rule changes) serialize among themselves
// on the store's internal lock, but Batch and strict Asserts perform
// multi-step read-check-write sequences, so concurrent *writers* still
// need caller-side coordination for transactional semantics.
type Database struct {
	u    *fact.Universe
	st   *store.Store
	vp   *virtual.Provider
	eng  *rules.Engine
	comp *compose.Composer
	br   *browse.Browser
	ev   *query.Evaluator
	pr   *probe.Prober
	vw   *views.Registry
	sr   *search.Searcher
	reg  *obs.Registry

	strict bool

	// logPath and syncPolicy remember the Open options so RecoverLog
	// can rebuild a failed log in place.
	logPath    string
	syncPolicy SyncPolicy
}

// New returns an empty in-memory database with default options.
func New() *Database {
	db, err := Open(Options{})
	if err != nil {
		panic(err) // cannot happen without a log path
	}
	return db
}

// Open returns a database configured by opts.
func Open(opts Options) (*Database, error) {
	u := fact.NewUniverse()
	st := store.New(u)
	if opts.LogPath != "" {
		if _, err := st.AttachLogPolicy(opts.LogPath, opts.SyncPolicy); err != nil {
			return nil, fmt.Errorf("lsdb: attach log: %w", err)
		}
		if opts.CheckpointEvery > 0 {
			st.SetAutoCheckpoint(opts.CheckpointEvery, opts.CheckpointSnapshot)
		}
	}
	vp := virtual.New(u)
	eng := rules.New(st, vp)
	if opts.SubgoalCacheEntries > 0 {
		eng.SetSubgoalCacheLimit(opts.SubgoalCacheEntries)
	}
	limit := opts.CompositionLimit
	if limit == 0 {
		limit = 3
	}
	comp := compose.New(eng, limit)
	db := &Database{
		u:          u,
		st:         st,
		vp:         vp,
		eng:        eng,
		comp:       comp,
		br:         browse.New(eng, comp),
		vw:         views.NewRegistry(),
		reg:        obs.NewRegistry(),
		strict:     opts.Strict,
		logPath:    opts.LogPath,
		syncPolicy: opts.SyncPolicy,
	}
	db.ev = &query.Evaluator{
		M: matcher{eng: eng, comp: comp},
		// ClosureEntities is computed once per closure snapshot and
		// shared, so ∀-heavy queries don't rescan the closure.
		Domain: eng.ClosureEntities,
	}
	db.pr = probe.New(eng, db.ev)
	db.sr = search.New(st, u)
	// Wire observability before the database is shared: the components
	// capture registry handles once and record lock-free thereafter.
	st.SetMetrics(db.reg)
	eng.SetMetrics(db.reg)
	db.br.SetMetrics(db.reg)
	db.ev.SetMetrics(db.reg)
	db.sr.SetMetrics(db.reg)
	return db, nil
}

// Metrics returns the database's metrics registry. Every subsystem —
// store, WAL, rules engine, subgoal cache, browser, and (when served
// by lsdbd) the HTTP layer — records into this one registry, which
// backs /metrics, /stats and the benchmark snapshots alike.
func (db *Database) Metrics() *obs.Registry { return db.reg }

// Close flushes and detaches the durability log, if any.
func (db *Database) Close() error { return db.st.CloseLog() }

// Universe exposes the entity universe (interning, special entities).
func (db *Database) Universe() *fact.Universe { return db.u }

// Store exposes the underlying fact store.
func (db *Database) Store() *store.Store { return db.st }

// Engine exposes the inference engine.
func (db *Database) Engine() *rules.Engine { return db.eng }

// Composer exposes the composition engine.
func (db *Database) Composer() *compose.Composer { return db.comp }

// Browser exposes the navigation browser.
func (db *Database) Browser() *browse.Browser { return db.br }

// Prober exposes the probing engine.
func (db *Database) Prober() *probe.Prober { return db.pr }

// Entity interns an entity name (normalizing ASCII aliases such as
// "in" for ∈ and "isa" for ≺) and returns its ID.
func (db *Database) Entity(name string) sym.ID { return db.u.Entity(name) }

// Name resolves an entity ID back to its name.
func (db *Database) Name(id sym.ID) string { return db.u.Name(id) }

// Len returns the number of stored (explicit) facts.
func (db *Database) Len() int { return db.st.Len() }

// ClosureLen returns the number of facts in the materialized closure.
func (db *Database) ClosureLen() int { return db.eng.ClosureSize() }

// Assert inserts the fact (s, r, t). Under Strict options it first
// verifies that the closure stays contradiction-free and returns the
// violations as an error otherwise.
func (db *Database) Assert(s, r, t string) error {
	return db.AssertFact(db.u.NewFact(s, r, t))
}

// AssertFact inserts f, enforcing integrity when the database is
// strict. With a durability log attached, it returns only after the
// sync policy's durability point; a failure there is reported as an
// error wrapping ErrNotDurable.
func (db *Database) AssertFact(f fact.Fact) error {
	if db.strict {
		if v := db.eng.WouldViolate(f); len(v) > 0 {
			msgs := make([]string, len(v))
			for i, viol := range v {
				msgs[i] = viol.Format(db.u)
			}
			return fmt.Errorf("lsdb: integrity violation: %s", strings.Join(msgs, "; "))
		}
	}
	if _, err := db.st.InsertLogged(f); err != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	return nil
}

// MustAssert is Assert, panicking on integrity violation.
func (db *Database) MustAssert(s, r, t string) {
	if err := db.Assert(s, r, t); err != nil {
		panic(err)
	}
}

// Retract deletes the stored fact (s, r, t), reporting whether it was
// present. Derived facts disappear with their premises.
func (db *Database) Retract(s, r, t string) bool {
	ok, _ := db.RetractFact(db.u.NewFact(s, r, t))
	return ok
}

// RetractFact deletes the stored fact f, reporting whether it was
// present and any durability failure (an error wrapping
// ErrNotDurable, see AssertFact).
func (db *Database) RetractFact(f fact.Fact) (bool, error) {
	ok, err := db.st.DeleteLogged(f)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	return ok, err
}

// Has reports whether (s, r, t) is in the database closure —
// stored, derived by rules, or virtual.
func (db *Database) Has(s, r, t string) bool {
	return db.eng.Has(db.u.NewFact(s, r, t))
}

// HasStored reports whether (s, r, t) is stored explicitly.
func (db *Database) HasStored(s, r, t string) bool {
	return db.st.Has(db.u.NewFact(s, r, t))
}

// matcher layers composition on top of the closure: a template like
// (JOHN, ?x, MARY) also matches composed relationships (§3.7).
type matcher struct {
	eng  *rules.Engine
	comp *compose.Composer
}

func (m matcher) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	if !m.eng.Match(s, r, t, fn) {
		return false
	}
	if m.comp != nil {
		return m.comp.Match(s, r, t, fn)
	}
	return true
}

// EstimateCount lets the evaluator order joins by closure index
// cardinality. A composed relationship name is answered by path
// search, which the closure's count says nothing about.
func (m matcher) EstimateCount(s, r, t sym.ID) (int, bool) {
	n, exact := m.eng.EstimateCount(s, r, t)
	if exact && m.comp != nil && m.comp.Composed(r) {
		exact = false
	}
	return n, exact
}

// tracedMatcher wraps matcher so every template evaluation during a
// traced query becomes one span: phase "match", the resolved pattern,
// and the number of facts enumerated. Dispositions are left to the
// bounded path — closure matches have no cache to be disposed by.
type tracedMatcher struct {
	inner matcher
	u     *fact.Universe
	tr    *obs.Trace
}

func (m tracedMatcher) Match(s, r, t sym.ID, fn func(fact.Fact) bool) bool {
	started := m.tr.Begin("match", m.pattern(s, r, t), 0)
	n := 0
	ok := m.inner.Match(s, r, t, func(f fact.Fact) bool {
		n++
		return fn(f)
	})
	if started {
		m.tr.End("", n)
	}
	return ok
}

func (m tracedMatcher) EstimateCount(s, r, t sym.ID) (int, bool) {
	return m.inner.EstimateCount(s, r, t)
}

func (m tracedMatcher) pattern(s, r, t sym.ID) string {
	n := func(id sym.ID) string {
		if id == sym.None {
			return "?"
		}
		return m.u.Name(id)
	}
	return "(" + n(s) + ", " + n(r) + ", " + n(t) + ")"
}

// QueryTraced is Query with a trace recorder: every template match
// the evaluator performs is recorded into tr as a span with its
// pattern and result count. Pass a fresh obs.NewTrace() and read
// tr.Done() afterwards; a nil tr degrades to Query.
func (db *Database) QueryTraced(src string, tr *obs.Trace) (*Rows, error) {
	if tr == nil {
		return db.Query(src)
	}
	q, err := db.Parse(src)
	if err != nil {
		return nil, err
	}
	ev := *db.ev // same domain and counters, matches recorded into tr
	ev.M = tracedMatcher{inner: matcher{eng: db.eng, comp: db.comp}, u: db.u, tr: tr}
	res, err := ev.Eval(q)
	if err != nil {
		return nil, err
	}
	return db.resolveResult(res), nil
}

// HasBoundedTrace reports whether (s, r, t) is derivable within depth
// rule applications, recording every subgoal evaluation into tr with
// its cache disposition (see rules.MatchBoundedTrace). It is the
// traced derivation behind lsdbd's /derive?trace=1.
func (db *Database) HasBoundedTrace(s, r, t string, depth int, tr *obs.Trace) bool {
	f := db.u.NewFact(s, r, t)
	found := false
	db.eng.MatchBoundedTrace(f.S, f.R, f.T, depth, tr, func(fact.Fact) bool {
		found = true
		return false
	})
	return found
}

// Rows is a query answer with entity names resolved.
type Rows struct {
	// Vars are the output column names, in first-occurrence order.
	Vars []string
	// Tuples are the satisfying assignments.
	Tuples [][]string
	// True is the truth value: for a proposition, whether it holds;
	// for an open query, whether any tuple satisfies it.
	True bool
}

// Empty reports query failure (§5): no satisfying tuples.
func (r *Rows) Empty() bool { return !r.True }

// Column returns the values of the named output column.
func (r *Rows) Column(name string) []string {
	idx := -1
	for i, v := range r.Vars {
		if v == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t[idx]
	}
	return out
}

// Query parses and evaluates a query in the surface syntax of §2.7:
//
//	exists ?x . (?x, in, BOOK) & (?x, CITES, ?x) & (?x, AUTHOR, ?y)
//
// Free variables (?y above, or * wildcards) are the output columns.
// Invocations of defined operators (see Define) are expanded first.
func (db *Database) Query(src string) (*Rows, error) {
	q, err := db.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.Eval(q)
}

// Parse parses a query without evaluating it, expanding defined
// operators first.
func (db *Database) Parse(src string) (*query.Query, error) {
	expanded, err := db.vw.Expand(src)
	if err != nil {
		return nil, err
	}
	return query.Parse(db.u, expanded)
}

// Define registers a new retrieval operator on top of the standard
// query language (§6: "a definition facility to implement new
// retrieval operators"):
//
//	db.Define("author-of(?b, ?p) := (?b, in, BOOK) & (?b, AUTHOR, ?p)")
//	rows, _ := db.Query("author-of(?x, JOHN)")
func (db *Database) Define(src string) error {
	return db.vw.ParseDefine(src)
}

// Undefine removes a defined operator, reporting whether it existed.
func (db *Database) Undefine(name string) bool { return db.vw.Undefine(name) }

// Defined returns the names of the registered operators.
func (db *Database) Defined() []string {
	names := db.vw.Names()
	sort.Strings(names)
	return names
}

// Definition returns the named operator definition.
func (db *Database) Definition(name string) (views.Def, bool) {
	return db.vw.Lookup(name)
}

// Derive returns the proof tree showing why (s, r, t) is in the
// materialized closure, or nil if it is not (virtual facts have no
// materialized derivation).
func (db *Database) Derive(s, r, t string) *rules.Derivation {
	return db.eng.Derive(db.u.NewFact(s, r, t))
}

// Eval evaluates a parsed query.
func (db *Database) Eval(q *query.Query) (*Rows, error) {
	res, err := db.ev.Eval(q)
	if err != nil {
		return nil, err
	}
	return db.resolveResult(res), nil
}

func (db *Database) resolveResult(res *query.Result) *Rows {
	rows := &Rows{Vars: res.Vars, True: res.True}
	for _, t := range res.Tuples {
		row := make([]string, len(t))
		for i, id := range t {
			row[i] = db.u.Name(id)
		}
		rows.Tuples = append(rows.Tuples, row)
	}
	return rows
}

// QueryTable evaluates a query and renders the answer in the §4.1
// navigation layout: a single column for one free variable, a
// two-dimensional table for two.
func (db *Database) QueryTable(src string) (string, error) {
	q, err := db.Parse(src)
	if err != nil {
		return "", err
	}
	res, err := db.ev.Eval(q)
	if err != nil {
		return "", err
	}
	return browse.AnswerTable(db.u, q, res), nil
}

// Navigate returns the neighborhood of the entity — the navigation
// step (e, *, *) plus (*, *, e) of §4.1.
func (db *Database) Navigate(entity string) *browse.Neighborhood {
	return db.br.Neighborhood(db.u.Entity(entity))
}

// Between returns every association between two entities — direct
// relationships and composition paths (§4.1's (LEOPOLD, *, MOZART)).
func (db *Database) Between(src, tgt string) []browse.Association {
	return db.br.Between(db.u.Entity(src), db.u.Entity(tgt))
}

// Probe evaluates the query and on failure runs automatic retraction
// (§5.2), broadening the query along minimal generalizations until
// some broader query succeeds.
func (db *Database) Probe(src string) (*probe.Outcome, error) {
	q, err := db.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.pr.Probe(q)
}

// Try returns every fact involving the entity (§6.1 try(e)), giving
// an unfamiliar user a starting point for navigation.
func (db *Database) Try(entity string) []fact.Fact {
	return ops.Try(db.eng, db.u.Entity(entity))
}

// IncludeRule re-enables a standard inference rule by name (§6.1).
// Names: gen-source, gen-rel, gen-target, member-source,
// member-target, gen-transitive, member-up, synonym, inversion.
func (db *Database) IncludeRule(name string) error { return ops.Include(db.eng, name) }

// ExcludeRule disables a standard inference rule by name (§6.1).
func (db *Database) ExcludeRule(name string) error { return ops.Exclude(db.eng, name) }

// Limit sets the composition chain bound (§6.1 limit(n)).
func (db *Database) Limit(n int) { db.comp.SetLimit(n) }

// AddRule parses and registers a user inference rule:
//
//	db.AddRule("works", "(?x, in, EMPLOYEE) => (?x, WORKS-FOR, DEPARTMENT)")
func (db *Database) AddRule(name, src string) error {
	r, err := rules.ParseRule(db.u, name, rules.Inference, src)
	if err != nil {
		return err
	}
	return db.eng.AddRule(r)
}

// AddConstraint parses and registers an integrity constraint (§2.5);
// constraints share the rule mechanism, and violations surface as
// contradictions in Check.
func (db *Database) AddConstraint(name, src string) error {
	r, err := rules.ParseRule(db.u, name, rules.Constraint, src)
	if err != nil {
		return err
	}
	return db.eng.AddRule(r)
}

// RemoveRule drops a user rule or constraint by name.
func (db *Database) RemoveRule(name string) bool { return db.eng.RemoveRule(name) }

// Check returns every contradiction in the closure (§2.5, §3.5); an
// empty result means the database is valid (§2.6).
func (db *Database) Check() []rules.Violation { return db.eng.Check() }

// Consistent reports whether the closure is contradiction-free.
func (db *Database) Consistent() bool { return db.eng.Consistent() }

// Relation builds the §6.1 relation(s, r₁ t₁, …) structured view.
// attrs alternate relationship and class names:
//
//	db.Relation("EMPLOYEE", "WORKS-FOR", "DEPARTMENT", "EARNS", "SALARY")
func (db *Database) Relation(class string, attrs ...string) (*tabular.Rows, error) {
	if len(attrs)%2 != 0 {
		return nil, fmt.Errorf("lsdb: Relation needs relationship/class name pairs")
	}
	ras := make([]ops.RelationAttr, 0, len(attrs)/2)
	for i := 0; i < len(attrs); i += 2 {
		ras = append(ras, ops.RelationAttr{
			Rel:   db.u.Entity(attrs[i]),
			Class: db.u.Entity(attrs[i+1]),
		})
	}
	return ops.Relation(db.eng, db.u.Entity(class), ras...), nil
}

// Relationships lists the relationship entities in use with their
// stored fact counts, most frequent first.
func (db *Database) Relationships() []string {
	stats := db.st.Relationships()
	out := make([]string, len(stats))
	for i, s := range stats {
		out[i] = fmt.Sprintf("%s (%d)", db.u.Name(s.Rel), s.Count)
	}
	return out
}

// SearchOptions, SearchResult and SearchHit re-export the keyword
// search types (paging, ranked entry points).
type (
	SearchOptions = search.Options
	SearchResult  = search.Result
	SearchHit     = search.Hit
)

// Search answers a free-text keyword query with ranked entry points
// for a browsing session: entities scored by term match quality over
// their names, synonym (≈) classes, taxonomy ancestry and fact
// neighborhoods, plus hub centrality. The inverted index behind it is
// rebuilt lazily whenever the store version moves, so results always
// reflect the current stored facts. For users who know a fragment of
// an entity name, Find remains the simpler substring aid.
func (db *Database) Search(q string, o SearchOptions) *SearchResult {
	return db.sr.Search(q, o)
}

// Searcher exposes the keyword search subsystem (index stats, direct
// access for benchmarks).
func (db *Database) Searcher() *search.Searcher { return db.sr }

// Find returns the names of active-domain entities whose name
// contains substr (case-insensitive), sorted. It is the browsing aid
// for users who do not know the exact entity names — pair it with Try
// to pick a navigation starting point (§6.1).
func (db *Database) Find(substr string) []string {
	needle := strings.ToLower(substr)
	var out []string
	for _, id := range db.st.Entities() {
		name := db.u.Name(id)
		if strings.Contains(strings.ToLower(name), needle) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Entities returns the sorted names of every entity occurring in a
// stored fact.
func (db *Database) Entities() []string {
	ids := db.st.Entities()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = db.u.Name(id)
	}
	sort.Strings(out)
	return out
}

// SaveSnapshot writes all stored facts to path atomically, as a
// compacted log at the current LSN (LogPath can open it).
func (db *Database) SaveSnapshot(path string) error { return db.st.SaveSnapshotFile(path) }

// LoadSnapshot merges the facts from a snapshot file at path: any
// log, whose final fact set it merges.
func (db *Database) LoadSnapshot(path string) error { return db.st.LoadSnapshotFile(path) }

// Sync flushes the durability log to disk and fsyncs it.
func (db *Database) Sync() error { return db.st.SyncLog() }

// Compact atomically rewrites the durability log to exactly the
// current fact set, truncating deleted history.
func (db *Database) Compact() error { return db.st.CompactLog() }

// LogStats reports the durability log's counters (appends, fsyncs,
// compactions, last-sync time); the zero value means no log attached.
func (db *Database) LogStats() LogStats { return db.st.LogStats() }

// LSN returns the absolute sequence number of the last appended log
// record — the commit LSN of the most recent mutation. A client that
// writes, reads this watermark, and then queries a replica with
// ?min_lsn= gets read-your-writes. 0 without a log.
func (db *Database) LSN() uint64 { return db.st.AppendedLSN() }

// DurableLSN returns the highest LSN covered by a successful fsync —
// the replication floor streamed to followers. 0 without a log.
func (db *Database) DurableLSN() uint64 { return db.st.DurableLSN() }

// RecoverLog rebuilds the durability log at its configured path from
// the current in-memory state, clearing a sticky log failure so the
// database can resume durable commits without a restart. The LSN
// sequence continues where the failed log stopped. It is an error if
// the database was opened without a log path.
func (db *Database) RecoverLog() error {
	if db.logPath == "" {
		return errors.New("lsdb: no log configured")
	}
	return db.st.ReattachLog(db.logPath, db.syncPolicy)
}

// Merge inserts every stored fact of other into db. This is the §1
// motivation of unified access across databases: two loosely
// structured databases merge by name with no schema mediation.
func (db *Database) Merge(other *Database) int {
	n := 0
	for _, f := range other.st.Facts() {
		g := fact.Fact{
			S: db.u.Intern(other.u.Name(f.S)),
			R: db.u.Intern(other.u.Name(f.R)),
			T: db.u.Intern(other.u.Name(f.T)),
		}
		if db.st.Insert(g) {
			n++
		}
	}
	return n
}
