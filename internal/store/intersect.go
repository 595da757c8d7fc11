// Sorted-set kernels over uint32-like values.
//
// The sealed index stores each posting bucket as an ascending run of
// fact IDs. These kernels combine such runs without hashing: linear merge when the inputs are
// comparably sized, galloping (exponential probe + binary search) when
// one side is much smaller, so an intersection costs
// O(min · log(max/min)) instead of O(max).

package store

// gallopRatio is the size disparity at which Intersect switches from
// linear merge to galloping probes of the larger side.
const gallopRatio = 8

// GallopGE returns the smallest index i in [from, len(xs)) with
// xs[i] >= v, or len(xs) when no such element exists. xs must be
// sorted ascending (duplicates allowed). It probes exponentially from
// `from` before binary-searching the bracketed range, so seeking a
// short distance is O(log distance) regardless of len(xs) — the shape
// a merge loop needs when it advances a cursor monotonically.
func GallopGE[T ~uint32](xs []T, v T, from int) int {
	n := len(xs)
	if from < 0 {
		from = 0
	}
	if from >= n || xs[from] >= v {
		if from > n {
			return n
		}
		return from
	}
	// Invariant: xs[lo] < v. Bracket an upper bound by doubling.
	lo, step := from, 1
	hi := from + 1
	for hi < n && xs[hi] < v {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi]: first index with xs[i] >= v.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Intersect appends to dst the values present in both a and b, which
// must be strictly ascending (sets). It returns the extended dst.
// When one input is at least gallopRatio times larger, the kernel
// iterates the smaller side and gallops through the larger; otherwise
// it runs a branchy two-cursor merge.
func Intersect[T ~uint32](dst, a, b []T) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, v := range a {
			j = GallopGE(b, v, j)
			if j >= len(b) {
				break
			}
			if b[j] == v {
				dst = append(dst, v)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// Union appends to dst the sorted union of a and b, which must be
// strictly ascending (sets). It returns the extended dst.
func Union[T ~uint32](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// DedupSorted removes adjacent duplicates from the sorted slice xs in
// place and returns the shortened slice.
func DedupSorted[T ~uint32](xs []T) []T {
	if len(xs) < 2 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}
