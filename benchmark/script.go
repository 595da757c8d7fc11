package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
)

// op is one read request of a browsing session. The same op can be
// sent as a GET, as an entry of a POST /batch, or made as a library
// call, which is what the traced ladder does.
type op struct {
	Kind   string // search | navigate | try | query | probe
	Arg    string // entity name, keyword text or query source
	Limit  int    // navigate: page size (0 = whole table); search: offset
	Expect []string
}

// path is the op's GET form.
func (o op) path() string {
	v := url.Values{}
	switch o.Kind {
	case "search":
		v.Set("q", o.Arg)
		v.Set("k", "5")
		if o.Limit > 0 {
			v.Set("offset", fmt.Sprint(o.Limit))
		}
	case "navigate", "try":
		v.Set("entity", o.Arg)
		if o.Limit > 0 {
			v.Set("limit", fmt.Sprint(o.Limit))
		}
	case "query", "probe":
		v.Set("q", o.Arg)
	}
	return "/" + o.Kind + "?" + v.Encode()
}

// batchEntry is the op's POST /batch form.
func (o op) batchEntry() map[string]any {
	m := map[string]any{"op": o.Kind}
	switch o.Kind {
	case "search":
		m["q"], m["k"] = o.Arg, 5
		if o.Limit > 0 {
			m["offset"] = o.Limit
		}
	case "navigate", "try":
		m["entity"] = o.Arg
		if o.Limit > 0 {
			m["limit"] = o.Limit
		}
	case "query", "probe":
		m["q"] = o.Arg
	}
	return m
}

// session is one scripted unit of interaction: a walk (six requests),
// a batched walk (the same six plus two, sent as one POST /batch), or
// a probe (a failing query and a look at what the retraction found).
type session struct {
	Kind string // walk | batch | probe
	Ops  []op
	body []byte // a batched session's request body, built once
}

// batchBody builds a batched session's request body.
func (s session) batchBody() []byte {
	ops := make([]map[string]any, len(s.Ops))
	for i, o := range s.Ops {
		ops[i] = o.batchEntry()
	}
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // strings and ints only
	}
	return b
}

// quoted is how a name appears inside a JSON response body.
func quoted(name string) string { return `"` + name + `"` }

// keywords turns an entity name into the text a user would type.
func keywords(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", " "))
}

// browseScript generates n sessions over a campus world: nine in ten
// are walks (one walk in ten batched), one in ten is a probe. Start
// entities are Zipf-popular students, courses and faculty.
func browseScript(seed uint64, w *world, n int) []session {
	r := newRNG(seed, "browse")
	zs := newZipf(len(w.Students), 1.2)
	zc := newZipf(len(w.Courses), 1.2)
	zf := newZipf(len(w.Faculty), 1.2)
	var probeStudents []string
	for _, s := range w.Students {
		if labCourse(w, s) != "" {
			probeStudents = append(probeStudents, s)
		}
	}
	out := make([]session, 0, n)
	for i := 0; i < n; i++ {
		if i%10 == 9 && len(probeStudents) > 0 {
			out = append(out, probeSession(r, w, pick(r, probeStudents)))
			continue
		}
		var start, join string
		switch k := r.intn(10); {
		case k < 7:
			start = w.Students[zs.draw(r)]
			join = fmt.Sprintf("(?e, ENROL-STUDENT, %s) & (?e, ENROL-COURSE, ?c)", start)
		case k < 9:
			start = w.Courses[zc.draw(r)]
			join = fmt.Sprintf("(?e, ENROL-COURSE, %s) & (?e, ENROL-GRADE, ?g)", start)
		default:
			start = w.Faculty[zf.draw(r)]
			join = fmt.Sprintf("(%s, TEACHES, ?c) & (?c, OFFERED-BY, ?d)", start)
		}
		n1 := pick(r, w.neighbours[start])
		n2 := pick(r, w.neighbours[n1])
		s := session{Kind: "walk", Ops: []op{
			{Kind: "search", Arg: keywords(start), Expect: []string{`"entity":` + quoted(start)}},
			{Kind: "navigate", Arg: start, Expect: []string{quoted(n1)}},
			{Kind: "navigate", Arg: n1, Expect: []string{quoted(start), quoted(n2)}},
			{Kind: "navigate", Arg: n2, Expect: []string{quoted(n1)}},
			{Kind: "try", Arg: n2, Expect: []string{quoted(n1)}},
			{Kind: "query", Arg: join, Expect: []string{`"tuples":`}},
		}}
		if i%10 == 4 {
			s.Kind = "batch"
			s.Ops = append(s.Ops,
				op{Kind: "navigate", Arg: start, Limit: 10, Expect: []string{`"offset":0`}},
				op{Kind: "search", Arg: keywords(start), Limit: 5, Expect: []string{`"offset":5`}})
			s.body = s.batchBody()
		}
		out = append(out, s)
	}
	return out
}

// labCourse returns a lab course the student is enrolled in, or "".
func labCourse(w *world, student string) string {
	for _, c := range w.takes[student] {
		if parentOf(w.leafOf[c]) == "LAB" {
			return c
		}
	}
	return ""
}

// probeSession asks for the student's studio courses. There are none
// (world.go keeps the STUDIO branch empty), and no single broadening
// helps, so the §5 retraction runs two waves before DESIGN-STUDIO has
// become PRACTICAL-COURSE and the student's lab course answers. The
// user then looks at that course.
func probeSession(r *rng, w *world, student string) session {
	leaf := pick(r, leaves("STUDIO"))
	lab := labCourse(w, student)
	q := fmt.Sprintf("(?c, in, %s) & (?e, ENROL-COURSE, ?c) & (?e, ENROL-STUDENT, %s)", leaf, student)
	return session{Kind: "probe", Ops: []op{
		{Kind: "probe", Arg: q, Expect: []string{`"succeeded":false`, `"waves":2`, quoted(lab)}},
		{Kind: "navigate", Arg: lab, Expect: []string{quoted(w.offeredBy[lab])}},
	}}
}

// trail is one on-demand navigation session of workload
// infer_ondemand: five entities, from hub to tail.
type trail []string

// trailStrata are the popularity ranks a trail's five entities come
// from, one stratum each. Trail k starts at the hub of rank k; the
// seed chooses the others within their strata. The cost of a trail is
// set by the degrees it meets, so fixing the ranks keeps one seed's
// trails as hard as another's.
var trailStrata = [5][2]float64{{0, 0}, {0.004, 0.03}, {0.03, 0.125}, {0.125, 0.5}, {0.5, 1}}

// trailScript generates n distinct trails over a graph world.
func trailScript(seed uint64, w *world, n int) []trail {
	r := newRNG(seed, "trails")
	out := make([]trail, n)
	for k := range out {
		t := trail{w.Nodes[k]}
		for _, st := range trailStrata[1:] {
			lo := max(int(st[0]*float64(len(w.Nodes))), n)
			hi := max(int(st[1]*float64(len(w.Nodes))), lo+1)
			t = append(t, w.Nodes[lo+r.intn(hi-lo)])
		}
		out[k] = t
	}
	return out
}

// write is one mutation of workload browse_churn's writer: an assert
// of a new data fact, or the retraction of one asserted earlier.
type write struct {
	Delete bool
	F      fact3
}

// churnScript generates the writer's n mutations: new FRIEND-OF facts
// from a Zipf-popular student to a fresh entity, every fourth step
// instead retracting the oldest fact this writer still has standing.
func churnScript(seed uint64, w *world, n int) []write {
	r := newRNG(seed, "churn")
	z := newZipf(len(w.Students), 1.2)
	var standing []fact3
	out := make([]write, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 && len(standing) > 0 {
			out = append(out, write{Delete: true, F: standing[0]})
			standing = standing[1:]
			continue
		}
		f := fact3{w.Students[z.draw(r)], "FRIEND-OF", fmt.Sprintf("VISITOR-%05d", i)}
		standing = append(standing, f)
		out = append(out, write{F: f})
	}
	return out
}

// scriptSHA digests any script value through its JSON encoding, which
// is deterministic for the struct and slice types used here.
func scriptSHA(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
