package store

// SetFoldDen replaces the fold rule's denominator until restore is
// called: 1<<30 makes every Seal with a non-empty delta fold, 0 makes
// no Seal fold except a store's first. Tests only — production code
// reads foldDen and never writes it.
func SetFoldDen(n int) (restore func()) {
	old := foldDen
	foldDen = n
	return func() { foldDen = old }
}
