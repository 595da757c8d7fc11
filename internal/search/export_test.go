package search

// PlantDefect plants the named bug in the patch path for the rest of
// a test and returns the function that removes it.
func PlantDefect(name string) (undo func()) {
	defect = map[string]plantedDefect{
		"drop-target":     dropTarget,
		"no-reverse-walk": noReverseWalk,
		"keep-vanished":   keepVanished,
	}[name]
	if defect == noDefect {
		panic("search: no planted defect named " + name)
	}
	return func() { defect = noDefect }
}
