package obs

import "time"

// Cache dispositions recorded on trace events. Each value maps 1:1 to
// a registry counter or a well-defined non-counted case, so the trace
// of a derivation can be cross-checked against the counter deltas it
// caused (internal/check does exactly that):
//
//	DispHit      — served from the shared cross-query subgoal table
//	DispMiss     — computed and (when untainted) stored in the table
//	DispMemo     — served from the per-call memo (repeat subgoal in
//	               one derivation; not a shared-cache event)
//	DispCycle    — subgoal already open on this path; cut to an empty
//	               set (the taint that blocks caching)
//	DispComputed — computed with the shared cache disabled
const (
	DispHit      = "hit"
	DispMiss     = "miss"
	DispMemo     = "memo"
	DispCycle    = "cycle"
	DispComputed = "computed"
)

// maxTraceEvents bounds a single trace: a runaway derivation must not
// turn one ?trace=1 request into an unbounded allocation. Spans past
// the cap still run; they are counted in Dropped instead of recorded.
const maxTraceEvents = 4096

// TraceEvent is one span of a recorded derivation: a phase (subgoal
// evaluation, rule application, store scan…) with its pattern, the
// remaining depth budget, timing, cache disposition, the number of
// facts it produced, and nested child spans.
type TraceEvent struct {
	Phase       string        `json:"phase"`
	Pattern     string        `json:"pattern,omitempty"`
	Depth       int           `json:"depth"`
	Disposition string        `json:"disposition,omitempty"`
	Facts       int           `json:"facts"`
	StartNs     int64         `json:"start_ns"`
	DurationNs  int64         `json:"duration_ns"`
	Children    []*TraceEvent `json:"children,omitempty"`
}

// Trace records a tree of spans for one query or derivation. It is
// single-goroutine by design (MatchBounded runs the derivation on the
// caller's goroutine); a nil *Trace is a no-op, so instrumented code
// calls Begin/End unconditionally. Spans nest by call structure: Begin
// pushes, End pops, and completed spans attach to their parent (or to
// the root list when the stack is empty).
type Trace struct {
	start   time.Time
	roots   []*TraceEvent
	stack   []*TraceEvent
	events  int
	dropped int
}

// NewTrace returns a trace whose span timestamps are relative to now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Begin opens a nested span. Returns false when the event cap is hit;
// the matching End call is still required (it becomes a no-op pop of
// nothing only if Begin returned false — callers just pair them).
func (t *Trace) Begin(phase, pattern string, depth int) bool {
	if t == nil {
		return false
	}
	if t.events >= maxTraceEvents {
		t.dropped++
		return false
	}
	t.events++
	ev := &TraceEvent{
		Phase:   phase,
		Pattern: pattern,
		Depth:   depth,
		StartNs: time.Since(t.start).Nanoseconds(),
	}
	t.stack = append(t.stack, ev)
	return true
}

// End closes the innermost open span, recording its disposition and
// fact count. Callers that got false from Begin must not call End.
func (t *Trace) End(disposition string, facts int) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	ev := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	ev.Disposition = disposition
	ev.Facts = facts
	ev.DurationNs = time.Since(t.start).Nanoseconds() - ev.StartNs
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.Children = append(parent.Children, ev)
	} else {
		t.roots = append(t.roots, ev)
	}
}

// Events returns the completed root spans. Any still-open spans are
// not included; Done closes them first.
func (t *Trace) Events() []*TraceEvent {
	if t == nil {
		return nil
	}
	return t.roots
}

// Dropped reports how many spans were not recorded due to the cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Done force-closes any spans left open (e.g. after a panic recovered
// upstream) and returns the root events. Normal exits have an empty
// stack and this is just Events.
func (t *Trace) Done() []*TraceEvent {
	if t == nil {
		return nil
	}
	for len(t.stack) > 0 {
		t.End("", 0)
	}
	return t.roots
}
