// Command lsdb is an interactive browser for a loosely structured
// database: the user-facing surface the paper describes, with
// navigation, probing, the standard query language, and the §6.1
// operators.
//
// Usage:
//
//	lsdb [-log db.log] [factfile ...]
//
// Commands (also `help` inside the session):
//
//	fact (A, R, B)           assert a fact
//	retract (A, R, B)        delete a fact
//	q <formula>              evaluate a standard query
//	probe <formula>          query with automatic retraction (§5)
//	nav <entity>             browse a neighborhood (§4.1)
//	between <e1> <e2>        all associations, incl. composed (§4.1)
//	try <entity>             all facts involving an entity (§6.1)
//	rule <name>: B => H      add an inference rule
//	constraint <name>: B => H  add an integrity constraint
//	include/exclude <rule>   toggle a standard rule (§6.1)
//	limit <n>                composition chain bound (§6.1)
//	relation C r t [r t...]  structured view (§6.1)
//	explain (A, R, B)        why a fact is in the closure
//	check                    report contradictions (§2.5)
//	entities | rels | stats  inventory
//	load/dump <file>         factfile I/O
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/factfile"
	"repro/internal/query"
)

// state holds the REPL's per-session browsing context.
type state struct {
	db   *lsdb.Database
	sess *browse.Session
}

func newState(db *lsdb.Database) *state {
	return &state{db: db, sess: browse.NewSession(db.Browser())}
}

func main() {
	logPath := flag.String("log", "", "append-only durability log")
	strict := flag.Bool("strict", false, "reject facts that contradict the closure")
	flag.Parse()

	db, err := lsdb.Open(lsdb.Options{Strict: *strict, LogPath: *logPath})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsdb:", err)
		os.Exit(1)
	}
	defer db.Close()

	for _, path := range flag.Args() {
		st, err := factfile.LoadFile(db, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsdb: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s: %d facts, %d rules, %d constraints\n",
			path, st.Facts, st.Rules, st.Constraints)
	}

	st := newState(db)
	fmt.Println("lsdb — loosely structured database browser. Type 'help'.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := st.run(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (st *state) run(line string) error {
	db := st.db
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	u := db.Universe()

	switch cmd {
	case "help":
		fmt.Print(helpText)

	case "fact":
		q, err := query.Parse(u, strings.TrimSuffix(rest, "."))
		if err != nil {
			return err
		}
		for _, a := range q.Atoms() {
			if !a.Tpl.Ground() {
				return fmt.Errorf("facts must be ground")
			}
			if err := db.AssertFact(a.Tpl.AsFact()); err != nil {
				return err
			}
		}
		fmt.Printf("ok (%d stored facts)\n", db.Len())

	case "retract":
		q, err := query.Parse(u, strings.TrimSuffix(rest, "."))
		if err != nil {
			return err
		}
		atoms := q.Atoms()
		if len(atoms) != 1 || !atoms[0].Tpl.Ground() {
			return fmt.Errorf("retract takes one ground fact")
		}
		ok, err := db.RetractFact(atoms[0].Tpl.AsFact())
		if err != nil {
			return err
		}
		if ok {
			fmt.Println("retracted")
		} else {
			fmt.Println("not stored (derived facts cannot be retracted directly)")
		}

	case "q", "query":
		rows, err := db.Query(rest)
		if err != nil {
			return err
		}
		printRows(rows)

	case "qt":
		out, err := db.QueryTable(rest)
		if err != nil {
			return err
		}
		fmt.Print(out)

	case "probe":
		out, err := db.Probe(rest)
		if err != nil {
			return err
		}
		fmt.Print(out.Menu(u))
		if out.Succeeded() {
			res, err := db.Query(rest)
			if err == nil {
				printRows(res)
			}
		} else {
			for _, w := range out.Waves {
				for _, e := range w.Successes() {
					fmt.Printf("  %s -> %d tuples\n", e.Q.String(), len(e.Result.Tuples))
				}
			}
		}

	case "nav", "go":
		n := st.sess.Visit(db.Entity(rest))
		fmt.Print(n.Table(u).Render())
		if len(n.In) > 0 {
			fmt.Println()
			fmt.Print(n.InTable(u).Render())
		}

	case "back":
		n := st.sess.Back()
		if n == nil {
			fmt.Println("(start of trail)")
			return nil
		}
		fmt.Print(n.Table(u).Render())

	case "where":
		fmt.Println(st.sess.Breadcrumbs(u))

	case "suggest":
		unexplored := st.sess.Unexplored(u)
		if len(unexplored) > 10 {
			unexplored = unexplored[:10]
		}
		for _, id := range unexplored {
			fmt.Println(" ", u.Name(id))
		}

	case "dot":
		if rest == "" {
			fmt.Print(st.sess.Dot(u))
			return nil
		}
		if err := os.WriteFile(rest, []byte(st.sess.Dot(u)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", rest)

	case "between":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return fmt.Errorf("between takes two entities")
		}
		fmt.Print(db.Browser().BetweenTable(db.Entity(parts[0]), db.Entity(parts[1])).Render())

	case "try":
		facts := db.Try(rest)
		if len(facts) == 0 {
			fmt.Println("no facts involve", rest)
		}
		for _, f := range facts {
			fmt.Println(" ", u.FormatFact(f))
		}

	case "rule", "constraint":
		name, body, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("%s needs 'name: body => head'", cmd)
		}
		if cmd == "rule" {
			return db.AddRule(strings.TrimSpace(name), body)
		}
		return db.AddConstraint(strings.TrimSpace(name), body)

	case "unrule":
		if !db.RemoveRule(rest) {
			return fmt.Errorf("no rule %q", rest)
		}

	case "include":
		return db.IncludeRule(rest)
	case "exclude":
		return db.ExcludeRule(rest)

	case "limit":
		if rest == "inf" || rest == "∞" {
			db.Limit(lsdb.Unlimited)
			return nil
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("limit takes a number or 'inf'")
		}
		db.Limit(n)

	case "relation":
		parts := strings.Fields(rest)
		if len(parts) < 3 || len(parts)%2 == 0 {
			return fmt.Errorf("relation CLASS rel class [rel class ...]")
		}
		table, err := db.Relation(parts[0], parts[1:]...)
		if err != nil {
			return err
		}
		fmt.Print(table.Render())

	case "explain":
		q, err := query.Parse(u, strings.TrimSuffix(rest, "."))
		if err != nil {
			return err
		}
		atoms := q.Atoms()
		if len(atoms) != 1 || !atoms[0].Tpl.Ground() {
			return fmt.Errorf("explain takes one ground fact")
		}
		d := db.Engine().Derive(atoms[0].Tpl.AsFact())
		if d == nil {
			if db.Engine().Has(atoms[0].Tpl.AsFact()) {
				fmt.Println("holds virtually (mathematics, Δ/∇, or equality)")
			} else {
				fmt.Println("not in the closure")
			}
			return nil
		}
		fmt.Print(d.Format(u))

	case "define":
		if err := db.Define(rest); err != nil {
			return err
		}
		fmt.Println("defined")

	case "undefine":
		if !db.Undefine(rest) {
			return fmt.Errorf("no definition %q", rest)
		}

	case "defs":
		for _, n := range db.Defined() {
			fmt.Println(" ", n)
		}

	case "check":
		vs := db.Check()
		if len(vs) == 0 {
			fmt.Println("consistent: the closure is contradiction-free")
		}
		for _, v := range vs {
			fmt.Println(" ", v.Format(u))
		}

	case "find":
		if rest == "" {
			return fmt.Errorf("find takes a substring")
		}
		matches := db.Find(rest)
		if len(matches) == 0 {
			fmt.Println("no entity names contain", rest)
		}
		for _, m := range matches {
			fmt.Println(" ", m)
		}

	case "entities":
		for _, e := range db.Entities() {
			fmt.Println(" ", e)
		}

	case "rels":
		for _, r := range db.Relationships() {
			fmt.Println(" ", r)
		}

	case "stats":
		fmt.Printf("stored facts:  %d\n", db.Len())
		fmt.Printf("closure facts: %d\n", db.ClosureLen())
		fmt.Printf("entities:      %d\n", len(db.Entities()))
		fmt.Printf("composition:   limit %d\n", db.Composer().Limit())

	case "import":
		parts := strings.Fields(rest)
		if len(parts) < 1 || len(parts) > 3 {
			return fmt.Errorf("import <file.csv> [keyColumn] [class]")
		}
		f, err := os.Open(parts[0])
		if err != nil {
			return err
		}
		defer f.Close()
		opts := factfile.CSVOptions{}
		if len(parts) > 1 {
			opts.KeyColumn = parts[1]
		}
		if len(parts) > 2 {
			opts.Class = parts[2]
		}
		n, err := factfile.ImportCSV(db, f, opts)
		if err != nil {
			return err
		}
		fmt.Printf("imported %d facts\n", n)

	case "load":
		st, err := factfile.LoadFile(db, rest)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d facts, %d rules, %d constraints\n", st.Facts, st.Rules, st.Constraints)

	case "dump":
		if err := factfile.DumpFile(db, rest); err != nil {
			return err
		}
		fmt.Println("dumped to", rest)

	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}

func printRows(rows *lsdb.Rows) {
	if len(rows.Vars) == 0 {
		fmt.Println(rows.True)
		return
	}
	if len(rows.Tuples) == 0 {
		fmt.Println("(empty — the query failed; try 'probe')")
		return
	}
	fmt.Println(strings.Join(rows.Vars, "  "))
	for _, t := range rows.Tuples {
		fmt.Println(strings.Join(t, "  "))
	}
	fmt.Printf("(%d tuples)\n", len(rows.Tuples))
}

const helpText = `commands:
  fact (A, R, B)            assert a fact (aliases: in isa syn inv contra TOP BOT)
  retract (A, R, B)         delete a stored fact
  q <formula>               standard query, e.g. q (?x, in, EMPLOYEE) & (?x, EARNS, ?y)
  qt <formula>              same, rendered as a §4.1 answer table
  probe <formula>           query with automatic retraction on failure
  nav|go <entity>           neighborhood browsing (tracked in the session trail)
  back | where | suggest    move back along the trail, show it, or list
                            entities seen but not yet visited
  dot [file]                Graphviz view of the visited subgraph
  between <e1> <e2>         all associations, including composition chains
  try <entity>              every fact involving the entity
  rule name: B => H         inference rule     constraint name: B => H
  include|exclude <rule>    gen-source gen-rel gen-target member-source
                            member-target gen-transitive member-up synonym inversion
  limit <n|inf>             composition chain bound
  relation C r t [r t ...]  structured view
  explain (A, R, B)         derivation tree of a closure fact
  define name(?a, ?b) := F  new retrieval operator (§6); undefine <name>; defs
  find <substr>             entity names containing a substring
  import <csv> [key] [cls]  import tabular data as facts
  check | entities | rels | stats | load <f> | dump <f> | quit
`
