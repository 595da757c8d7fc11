package serve

// RoutePaths lists the path of every row of the routes table.
func RoutePaths() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.path
	}
	return out
}

// ReadOps lists the read operations POST /batch accepts.
func ReadOps() []string {
	var out []string
	for name := range readOps {
		out = append(out, name)
	}
	return out
}
