package browse

import (
	"sort"

	"repro/benchmark/ref/fact"
	"repro/benchmark/ref/query"
	"repro/benchmark/ref/tabular"
)

// Answer tables, §4.1: "Normally, the user supplies templates which
// have either one or two free variables. The answer is then
// represented as a single column (if the template had only one free
// variable), or in a two-dimensional table (if the template had two
// free variables)."

// AnswerTable renders a query result in the paper's navigation
// layout. One free variable yields a single column headed by the
// query text; two free variables yield a two-dimensional table whose
// rows group the second variable's values by the first; propositions
// render their truth value; more variables fall back to one column
// per variable.
func AnswerTable(u *fact.Universe, q *query.Query, res *query.Result) string {
	switch len(res.Vars) {
	case 0:
		if res.True {
			return "true\n"
		}
		return "false\n"
	case 1:
		t := &tabular.Columnar{}
		items := make([]string, len(res.Tuples))
		for i, tp := range res.Tuples {
			items[i] = u.Name(tp[0])
		}
		sort.Strings(items)
		t.Add(q.String(), items...)
		return t.Render()
	case 2:
		byFirst := make(map[string][]string)
		var order []string
		for _, tp := range res.Tuples {
			k := u.Name(tp[0])
			if _, seen := byFirst[k]; !seen {
				order = append(order, k)
			}
			byFirst[k] = append(byFirst[k], u.Name(tp[1]))
		}
		sort.Strings(order)
		t := &tabular.Rows{Headers: []string{res.Vars[0], res.Vars[1]}}
		for _, k := range order {
			vals := byFirst[k]
			sort.Strings(vals)
			t.AddRow([]string{k}, vals)
		}
		return t.Render()
	default:
		t := &tabular.Rows{Headers: res.Vars}
		for _, tp := range res.Tuples {
			row := make([][]string, len(tp))
			for i, id := range tp {
				row[i] = []string{u.Name(id)}
			}
			t.AddRow(row...)
		}
		return t.Render()
	}
}
