package store

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveIntersect is the reference the kernels are checked against.
func naiveIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	var out []uint32
	for _, v := range a {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

func naiveUnion(a, b []uint32) []uint32 {
	seen := make(map[uint32]bool, len(a)+len(b))
	var out []uint32
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// setsOver enumerates every subset of {0..n-1} as a sorted slice.
func setsOver(n int) [][]uint32 {
	var out [][]uint32
	for mask := 0; mask < 1<<n; mask++ {
		var s []uint32
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, uint32(i))
			}
		}
		out = append(out, s)
	}
	return out
}

// TestIntersectUnionExhaustive checks every pair of subsets of a small
// universe against the naive references — all branch combinations of
// the merge loops (empty sides, disjoint, nested, interleaved).
func TestIntersectUnionExhaustive(t *testing.T) {
	sets := setsOver(6)
	for _, a := range sets {
		for _, b := range sets {
			got := Intersect(nil, a, b)
			want := naiveIntersect(a, b)
			if !equalU32(got, want) {
				t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, want)
			}
			gotU := Union(nil, a, b)
			wantU := naiveUnion(a, b)
			if !equalU32(gotU, wantU) {
				t.Fatalf("Union(%v, %v) = %v, want %v", a, b, gotU, wantU)
			}
		}
	}
}

// TestIntersectGalloping forces the galloping branch with a heavily
// skewed size ratio and verifies against the naive reference.
func TestIntersectGalloping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := make([]uint32, 0, 4096)
	v := uint32(0)
	for i := 0; i < 4096; i++ {
		v += uint32(rng.Intn(5) + 1)
		big = append(big, v)
	}
	small := []uint32{big[3], big[100], big[101], big[4000], big[4095] + 10}
	got := Intersect(nil, small, big)
	want := naiveIntersect(small, big)
	if !equalU32(got, want) {
		t.Fatalf("galloping Intersect = %v, want %v", got, want)
	}
	// Symmetric argument order must not change the result.
	if got2 := Intersect(nil, big, small); !equalU32(got2, got) {
		t.Fatalf("Intersect not symmetric: %v vs %v", got2, got)
	}
}

func TestGallopBounds(t *testing.T) {
	xs := []uint32{2, 4, 4, 4, 9}
	cases := []struct {
		v      uint32
		from   int
		wantGE int
	}{
		{0, 0, 0},
		{2, 0, 0},
		{3, 0, 1},
		{4, 0, 1},
		{4, 2, 2},
		{9, 0, 4},
		{10, 0, 5},
		{4, 5, 5},  // from past the end
		{4, -3, 1}, // negative from clamps to 0
	}
	for _, c := range cases {
		if got := GallopGE(xs, c.v, c.from); got != c.wantGE {
			t.Errorf("GallopGE(%v, %d, %d) = %d, want %d", xs, c.v, c.from, got, c.wantGE)
		}
	}
	if got := GallopGE([]uint32(nil), 5, 0); got != 0 {
		t.Errorf("GallopGE(nil) = %d, want 0", got)
	}
}

func TestGallopLongSeek(t *testing.T) {
	xs := make([]uint32, 1<<16)
	for i := range xs {
		xs[i] = uint32(2 * i)
	}
	for _, v := range []uint32{0, 1, 2, 131069, 131070, 131071, 200000} {
		want := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
		if got := GallopGE(xs, v, 0); got != want {
			t.Fatalf("GallopGE(.., %d, 0) = %d, want %d", v, got, want)
		}
	}
}

func TestDedupSorted(t *testing.T) {
	cases := []struct{ in, want []uint32 }{
		{nil, nil},
		{[]uint32{1}, []uint32{1}},
		{[]uint32{1, 1, 1}, []uint32{1}},
		{[]uint32{1, 2, 2, 3, 3, 3, 9}, []uint32{1, 2, 3, 9}},
	}
	for _, c := range cases {
		got := DedupSorted(append([]uint32(nil), c.in...))
		if !equalU32(got, c.want) {
			t.Errorf("DedupSorted(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
