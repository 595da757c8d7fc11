package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// The generators in this file are the benchmark's own: they import
// nothing from internal/dataset, internal/gen or internal/bench, so a
// change to those packages cannot change a workload. Everything is a
// function of the seed alone, through rng below — not math/rand, whose
// stream is outside this repository's control.

// rng is SplitMix64.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp draws an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

func pick(r *rng, xs []string) string { return xs[r.intn(len(xs))] }

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cum[k] = sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	x := r.float() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// fact3 is one generated fact in the daemon's surface spelling
// ("in" for ∈, "isa" for ≺, "syn" for ≈, "inv" for ⇌).
type fact3 struct{ S, R, T string }

// world is a generated database plus what the script generators need
// to know about it.
type world struct {
	Facts []fact3

	// campus
	Students, Faculty, Courses, Depts []string
	Hub                               string
	// neighbours lists, per entity, the entities it shares a stored
	// data fact with, in generation order. A reified enrolment is the
	// neighbour of its student and of its course (§2.6).
	neighbours map[string][]string
	// takes maps a student to the courses of their enrolments;
	// offeredBy maps a course to its department; leafOf maps a course
	// or person to its leaf class.
	takes     map[string][]string
	offeredBy map[string]string
	leafOf    map[string]string

	// graph
	Nodes []string
}

func (w *world) add(s, r, t string) {
	w.Facts = append(w.Facts, fact3{s, r, t})
}

func (w *world) link(s, r, t string) {
	w.add(s, r, t)
	w.neighbours[s] = append(w.neighbours[s], t)
	w.neighbours[t] = append(w.neighbours[t], s)
}

// sha256 digests the fact list in load order.
func (w *world) sha256() string {
	h := sha256.New()
	for _, f := range w.Facts {
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", f.S, f.R, f.T)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// taxonomy is the campus class tree: four levels, root first. A leaf
// class at depth 3 has three proper ancestors, so a probe that names
// the wrong leaf needs two retraction waves to reach a class that
// also covers a sibling branch.
var taxonomy = map[string][]string{
	"PERSON":           {"STUDENT", "EMPLOYEE"},
	"STUDENT":          {"UNDERGRADUATE", "POSTGRADUATE"},
	"UNDERGRADUATE":    {"FRESHMAN", "SOPHOMORE", "SENIOR"},
	"POSTGRADUATE":     {"MASTERS-STUDENT", "DOCTORAL-STUDENT"},
	"EMPLOYEE":         {"FACULTY", "STAFF"},
	"FACULTY":          {"PROFESSOR", "LECTURER"},
	"STAFF":            {"LIBRARIAN", "TECHNICIAN"},
	"COURSE":           {"TAUGHT-COURSE", "PRACTICAL-COURSE"},
	"TAUGHT-COURSE":    {"LECTURE", "SEMINAR"},
	"LECTURE":          {"INTRO-LECTURE", "ADVANCED-LECTURE"},
	"SEMINAR":          {"READING-SEMINAR", "RESEARCH-SEMINAR"},
	"PRACTICAL-COURSE": {"LAB", "STUDIO"},
	"LAB":              {"WET-LAB", "COMPUTER-LAB"},
	"STUDIO":           {"DESIGN-STUDIO", "MUSIC-STUDIO"},
	"UNIT":             {"ACADEMIC-UNIT", "SERVICE-UNIT"},
	"ACADEMIC-UNIT":    {"DEPARTMENT", "INSTITUTE"},
	"DEPARTMENT":       {"SCIENCE-DEPARTMENT", "ARTS-DEPARTMENT"},
	"INSTITUTE":        {"RESEARCH-INSTITUTE", "TEACHING-INSTITUTE"},
	"SERVICE-UNIT":     {"LIBRARY", "WORKSHOP"},
}

var taxonomyRoots = []string{"PERSON", "COURSE", "UNIT"}

// leaves returns the depth-3 classes under root, in tree order.
func leaves(root string) []string {
	kids := taxonomy[root]
	if len(kids) == 0 {
		return []string{root}
	}
	var out []string
	for _, k := range kids {
		out = append(out, leaves(k)...)
	}
	return out
}

// parentOf returns the class directly above c ("" for a root).
func parentOf(c string) string {
	for p, kids := range taxonomy {
		for _, k := range kids {
			if k == c {
				return p
			}
		}
	}
	return ""
}

// relHierarchy is the two-level relationship hierarchy: eight leaf
// relationships under four parents, twelve in all.
var relHierarchy = [][2]string{
	{"MEMBER-OF", "AFFILIATED-WITH"}, {"MAJORS-IN", "AFFILIATED-WITH"},
	{"TAKES", "STUDIES"}, {"AUDITS", "STUDIES"},
	{"TEACHES", "INSTRUCTS"}, {"ADVISES", "INSTRUCTS"},
	{"FRIEND-OF", "KNOWS"}, {"ROOMMATE-OF", "KNOWS"},
}

var inversions = [][2]string{
	{"TEACHES", "TAUGHT-BY"}, {"ADVISES", "ADVISED-BY"},
	{"MEMBER-OF", "HAS-MEMBER"}, {"OFFERED-BY", "OFFERS"},
}

var (
	givenNames = []string{"ADA", "ALAN", "BORIS", "CLARA", "DMITRI", "ELENA", "FELIX", "GRETA", "HUGO", "INES",
		"JONAS", "KATJA", "LEO", "MARIA", "NILS", "OLGA", "PAUL", "QUINN", "ROSA", "SVEN",
		"TESSA", "ULF", "VERA", "WIM", "XENIA", "YURI", "ZOE", "ANTON", "BIRGIT", "CARL"}
	surnames = []string{"ABEL", "BAUER", "CONTI", "DURAND", "EKLUND", "FABER", "GRECO", "HOLM", "IVANOV", "JANSEN",
		"KLEIN", "LINDE", "MORETTI", "NOVAK", "OLSEN", "PETROV", "QUIST", "ROSSI", "SANDER", "THORN",
		"ULRICH", "VOGEL", "WEBER", "XAVIER", "YOUNG", "ZIMMER"}
	subjects = []string{"ALGEBRA", "BOTANY", "CHEMISTRY", "DRAMA", "ECOLOGY", "FRENCH", "GEOLOGY", "HISTORY",
		"IMMUNOLOGY", "JOURNALISM", "KINETICS", "LOGIC", "MUSIC", "NUTRITION", "OPTICS", "PHYSICS"}
	grades = []string{"A", "B", "C", "D", "F"}
)

// campusSize fixes a campus world's population. The fact count is
// roughly 11 per student.
type campusSize struct {
	Students, Faculty, Courses, Depts, EnrolPerStudent int
}

// campus generates the university world of workloads browse_warm,
// browse_churn (size S) and ingest_recover (size M): a four-level
// class taxonomy with memberships, a two-level relationship
// hierarchy, four inversions, synonyms, reified enrolments, and
// Zipf(1.2) popularity of courses, advisers and friends.
func campus(seed uint64, sz campusSize) *world {
	r := newRNG(seed, "campus")
	w := &world{
		neighbours: make(map[string][]string),
		takes:      make(map[string][]string),
		offeredBy:  make(map[string]string),
		leafOf:     make(map[string]string),
	}

	// Schema: taxonomy, relationship hierarchy, inversions, and the
	// class-level facts members inherit. The inverse of an inherited
	// class-level relationship is declared a class relationship
	// (DESIGN.md §2) so member-source does not distribute it.
	var walk func(c string)
	walk = func(c string) {
		for _, k := range taxonomy[c] {
			w.add(k, "isa", c)
			walk(k)
		}
	}
	for _, root := range taxonomyRoots {
		walk(root)
	}
	for _, p := range relHierarchy {
		w.add(p[0], "isa", p[1])
	}
	for _, p := range inversions {
		w.add(p[0], "inv", p[1])
		w.add(p[1], "in", "@class")
	}
	w.add("STUDENT", "TAKES", "COURSE")
	w.add("FACULTY", "TEACHES", "COURSE")
	w.add("COURSE", "OFFERED-BY", "UNIT")
	for _, g := range grades {
		w.add(g, "in", "GRADE")
	}

	unitLeaves := leaves("UNIT")
	for i := 0; i < sz.Depts; i++ {
		subj := subjects[i%len(subjects)]
		d := fmt.Sprintf("%s-DEPT-%02d", subj, i)
		w.Depts = append(w.Depts, d)
		w.add(d, "in", unitLeaves[i%len(unitLeaves)])
		w.add(d, "syn", fmt.Sprintf("SCHOOL-OF-%s-%02d", subj, i))
	}

	// Courses are lectures, seminars and labs. No course is a studio:
	// the STUDIO branch of the taxonomy stays empty, so a probe that
	// asks for a studio course must be broadened twice (leaf → STUDIO →
	// PRACTICAL-COURSE) before anything can match.
	courseLeaves := append(leaves("TAUGHT-COURSE"), leaves("LAB")...)
	for i := 0; i < sz.Courses; i++ {
		dept := w.Depts[r.intn(len(w.Depts))]
		c := fmt.Sprintf("%s-%03d", dept[:3], 100+i)
		w.Courses = append(w.Courses, c)
		leaf := pick(r, courseLeaves)
		w.leafOf[c] = leaf
		w.offeredBy[c] = dept
		w.add(c, "in", leaf)
		w.link(c, "OFFERED-BY", dept)
		w.add(c, "CREDITS", fmt.Sprint(2+r.intn(5)))
	}

	person := func(i int) string {
		return fmt.Sprintf("%s-%s-%04d", pick(r, givenNames), pick(r, surnames), i)
	}
	facultyLeaves := leaves("EMPLOYEE")
	courseZipf := newZipf(len(w.Courses), 1.2)
	for i := 0; i < sz.Faculty; i++ {
		p := person(i)
		w.Faculty = append(w.Faculty, p)
		leaf := pick(r, facultyLeaves)
		w.leafOf[p] = leaf
		w.add(p, "in", leaf)
		w.link(p, "MEMBER-OF", pick(r, w.Depts))
		for k := 0; k < 2; k++ {
			w.link(p, "TEACHES", w.Courses[courseZipf.draw(r)])
		}
	}

	studentLeaves := leaves("STUDENT")
	facultyZipf := newZipf(len(w.Faculty), 1.2)
	studentZipf := newZipf(sz.Students, 1.2)
	for i := 0; i < sz.Students; i++ {
		w.Students = append(w.Students, person(sz.Faculty+i))
	}
	enrol := 0
	for _, s := range w.Students {
		leaf := pick(r, studentLeaves)
		w.leafOf[s] = leaf
		w.add(s, "in", leaf)
		w.link(s, "MAJORS-IN", pick(r, w.Depts))
		w.link(w.Faculty[facultyZipf.draw(r)], "ADVISES", s)
		if o := w.Students[studentZipf.draw(r)]; o != s {
			rel := "FRIEND-OF"
			if r.intn(4) == 0 {
				rel = "ROOMMATE-OF"
			}
			w.link(s, rel, o)
		}
		if r.intn(5) == 0 {
			w.link(s, "AUDITS", w.Courses[courseZipf.draw(r)])
		}
		for k := 0; k < sz.EnrolPerStudent; k++ {
			c := w.Courses[courseZipf.draw(r)]
			e := fmt.Sprintf("ENROLMENT-%06d", enrol)
			enrol++
			w.add(e, "in", "ENROLMENT")
			w.link(e, "ENROL-STUDENT", s)
			w.link(e, "ENROL-COURSE", c)
			w.add(e, "ENROL-GRADE", pick(r, grades))
			w.takes[s] = append(w.takes[s], c)
		}
	}
	// The hub is the entity users land on most: the most popular course.
	w.Hub = w.Courses[0]
	return w
}

// graphL generates the world of workload infer_ondemand: a Zipf graph
// over n entities and eight relationships, with a relationship
// hierarchy, four inversions and a six-class taxonomy — the shape of
// internal/bench's OnDemandWorld, regenerated here.
func graphL(seed uint64, n, facts int) *world {
	r := newRNG(seed, "graph")
	w := &world{neighbours: make(map[string][]string)}
	for i := 0; i < n; i++ {
		w.Nodes = append(w.Nodes, fmt.Sprintf("N%05d", i))
	}
	rel := func(i int) string { return fmt.Sprintf("REL-%02d", i) }
	for i := 1; i < 8; i += 2 {
		w.add(rel(i), "isa", rel(i-1))
	}
	for i := 0; i < 4; i++ {
		w.add(rel(i), "inv", fmt.Sprintf("REL-INV-%02d", i))
	}
	for j := 1; j < 6; j++ {
		w.add(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < n; i += 10 {
		w.add(w.Nodes[i], "in", fmt.Sprintf("K%d", r.intn(6)))
	}
	z := newZipf(n, 1.2)
	seen := make(map[fact3]bool, facts)
	for len(seen) < facts {
		f := fact3{w.Nodes[z.draw(r)], rel(r.intn(8)), w.Nodes[r.intn(n)]}
		if f.S == f.T || seen[f] {
			continue
		}
		seen[f] = true
		w.link(f.S, f.R, f.T)
	}
	return w
}
