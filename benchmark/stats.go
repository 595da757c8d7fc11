package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies of one kind, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a report may quote, highest
// first, in per mille.
var tailLadder = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a percentile for it to
// be quoted: with fewer, the figure is one or two outliers.
const minBeyond = 10

// highestPercentile returns the highest rung of tailLadder that has at
// least minBeyond of n samples beyond it, or 0.5 when none has.
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= minBeyond*1000 {
			return float64(p) / 1000
		}
	}
	return 0.5
}

// spread is the distance between the first and third quartile of xs
// as a share of their median, the measure the A/A gate applies. The
// quartiles are those of Python's statistics.quantiles(xs, n=4)
// (exclusive method), which the driver uses.
func spread(xs []float64) (q1, med, q3, rel float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0], 0
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q1, med, q3 = at(1), at(2), at(3)
	return q1, med, q3, (q3 - q1) / med
}

// event is one completed unit of work: when it started and ended
// relative to the start of the run, and how long it took in
// milliseconds.
type event struct {
	start, end time.Duration
	ms         float64
}

type events []event

func (e events) ms() []float64 {
	out := make([]float64, len(e))
	for i, ev := range e {
		out[i] = ev.ms
	}
	return out
}

// sliceWidth is the unit the phases of a run are cut in: browse_warm's
// closed-loop and open-loop segments and the halves of a traced run
// are whole numbers of slices. The tests shorten it.
var sliceWidth = time.Second
