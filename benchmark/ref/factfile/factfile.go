// Package factfile reads and writes the textual fact format used by
// the command-line tools and examples:
//
//	# A comment.
//	(JOHN, EARNS, $25000).
//	(EMPLOYEE, EARNS, SALARY).
//	rule own-rule: (?x, in, EMPLOYEE) => (?x, in, PERSON).
//	constraint pos-age: (?x, HAS-AGE, ?y) => (?y, >, 0).
//
// One statement per line; the trailing period is optional. Facts are
// ground templates; rules and constraints use the rule syntax of
// rules.ParseRule. ASCII aliases of the special entities (in, isa,
// syn, inv, TOP, …) are accepted.
package factfile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	lsdb "repro/benchmark/ref/lsdb"
	"repro/benchmark/ref/query"
	"repro/benchmark/ref/rules"
)

// Stats summarizes a load.
type Stats struct {
	Facts       int
	Rules       int
	Constraints int
	Defines     int
}

// Load reads statements from r into db.
func Load(db *lsdb.Database, r io.Reader) (Stats, error) {
	var st Stats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		line = strings.TrimSuffix(line, ".")
		switch {
		case strings.HasPrefix(line, "rule "):
			if err := addRule(db, line[len("rule "):], false); err != nil {
				return st, fmt.Errorf("factfile: line %d: %w", lineNo, err)
			}
			st.Rules++
		case strings.HasPrefix(line, "constraint "):
			if err := addRule(db, line[len("constraint "):], true); err != nil {
				return st, fmt.Errorf("factfile: line %d: %w", lineNo, err)
			}
			st.Constraints++
		case strings.HasPrefix(line, "define "):
			if err := db.Define(line[len("define "):]); err != nil {
				return st, fmt.Errorf("factfile: line %d: %w", lineNo, err)
			}
			st.Defines++
		default:
			if err := addFact(db, line); err != nil {
				return st, fmt.Errorf("factfile: line %d: %w", lineNo, err)
			}
			st.Facts++
		}
	}
	return st, sc.Err()
}

// LoadFile reads statements from the file at path into db.
func LoadFile(db *lsdb.Database, path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	return Load(db, f)
}

func addRule(db *lsdb.Database, src string, constraint bool) error {
	name, body, ok := strings.Cut(src, ":")
	if !ok {
		return fmt.Errorf("rule needs 'name: body => head'")
	}
	name = strings.TrimSpace(name)
	if constraint {
		return db.AddConstraint(name, body)
	}
	return db.AddRule(name, body)
}

func addFact(db *lsdb.Database, line string) error {
	q, err := query.Parse(db.Universe(), line)
	if err != nil {
		return err
	}
	atoms := q.Atoms()
	if len(atoms) != 1 || len(q.Free) != 0 {
		// Allow "fact & fact" lines as a convenience.
		if len(q.Free) != 0 {
			return fmt.Errorf("facts must be ground: %q", line)
		}
	}
	for _, a := range atoms {
		if !a.Tpl.Ground() {
			return fmt.Errorf("facts must be ground: %q", line)
		}
		if err := db.AssertFact(a.Tpl.AsFact()); err != nil {
			return err
		}
	}
	return nil
}

// Dump writes every stored fact of db to w in the factfile format,
// sorted by name for deterministic output, followed by its user rules
// and operator definitions. Special entities are written with their
// canonical (symbol) names, quoted when necessary.
func Dump(db *lsdb.Database, w io.Writer) error {
	bw := bufio.NewWriter(w)
	u := db.Universe()
	lines := make([]string, 0, db.Len())
	for _, f := range db.Store().Facts() {
		lines = append(lines, fmt.Sprintf("(%s, %s, %s).", quote(u.Name(f.S)), quote(u.Name(f.R)), quote(u.Name(f.T))))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(bw, l)
	}
	for _, r := range db.Engine().Rules() {
		kind := "rule"
		if r.Kind == rules.Constraint {
			kind = "constraint"
		}
		fmt.Fprintf(bw, "%s %s: %s.\n", kind, r.Name, r.Format(u))
	}
	names := db.Defined()
	for _, n := range names {
		if d, ok := db.Definition(n); ok {
			params := make([]string, len(d.Params))
			for i, p := range d.Params {
				params[i] = "?" + p
			}
			fmt.Fprintf(bw, "define %s(%s) := %s\n", d.Name, strings.Join(params, ", "), d.Body)
		}
	}
	return bw.Flush()
}

// DumpFile writes the database to the file at path.
func DumpFile(db *lsdb.Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Dump(db, f)
}

// nameEscaper escapes the two runes the quoted-entity lexer treats
// specially: backslash (the escape rune itself) and the quote.
var nameEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func quote(name string) string {
	if safeBare(name) {
		return name
	}
	return "'" + nameEscaper.Replace(name) + "'"
}

// safeBare reports whether name survives a Dump→Load round trip
// unquoted: it must lex as a single bare word and not collide with a
// boolean keyword. Anything else — empty names, names with spaces,
// punctuation outside the word-rune set, embedded dots (a trailing
// dot would merge with the statement terminator), or names reading
// "and"/"or"/"exists"/"forall" — is single-quoted with escaping.
func safeBare(name string) bool {
	if name == "" {
		return false
	}
	switch strings.ToLower(name) {
	case "and", "or", "exists", "forall":
		return false
	}
	for _, r := range name {
		if !query.IsWordRune(r) {
			return false
		}
	}
	return true
}
