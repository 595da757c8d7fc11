package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runAA is the A/A mode: two sets of n runs of every workload on this
// one binary, the sets alternating run by run, each run with another
// seed (set A takes the odd seeds, set B the even ones). For every
// workload and end-to-end metric it prints both sets' quartiles and
// spread (quartile distance over median), and how far set B's median
// is worse than set A's. It fails when a spread exceeds the metric's
// bound (set-up time excepted, as the driver excepts it) or when B is
// worse than A by more than the bound: the same code disagreeing with
// itself.
func runAA(e *env, cfg config, n int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	refs := map[key][]float64{} // the reference build's own readings, both sets
	code := 0
	for _, w := range spec.Workloads {
		wl := w.Name
		for i := 0; i < 2*n; i++ {
			c := cfg
			c.workload, c.seed = wl, uint64(i+1)
			res, err := runOne(e, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if res.failed > 0 {
				fmt.Printf("# %s seed %d: %d of %d operations failed: %v\n", wl, c.seed, res.failed, res.attempted, res.firstErr)
				code = 1
			}
			var line []string
			for _, d := range spec.EndToEnd {
				v := res.metrics[d.Name].Value
				sets[i%2][key{wl, d.Name}] = append(sets[i%2][key{wl, d.Name}], v)
				if rv, ok := res.refs[d.Name]; ok {
					refs[key{wl, d.Name}] = append(refs[key{wl, d.Name}], rv)
				}
				line = append(line, fmt.Sprintf("%s=%.4g", d.Name, v))
			}
			fmt.Printf("# %s set %c seed %d: %s\n", wl, 'A'+i%2, c.seed, strings.Join(line, " "))
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# A/A: two alternating sets of %d runs, %g s each\n\n", n, cfg.seconds)
	fmt.Fprintf(&b, "nproc %d, %s, kernel %s\n\n", runtime.NumCPU(), runtime.Version(), kernelRelease())
	fmt.Fprintf(&b, "| workload | metric | A q1 | A median | A q3 | A spread | B median | B spread | B worse by | bound | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range spec.Workloads {
		wl := w.Name
		for _, d := range spec.EndToEnd {
			a, bb := sets[0][key{wl, d.Name}], sets[1][key{wl, d.Name}]
			aq1, amed, aq3, asp := spread(a)
			_, bmed, _, bsp := spread(bb)
			worse := (bmed - amed) / amed
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if (d.Name != "setup_s" && max(asp, bsp) > d.Bound) || worse > d.Bound {
				verdict = "FAIL"
				code = max(code, 1)
			} else if max(asp, bsp) > d.Bound/3 {
				verdict = "ok, spread above a third of the bound"
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %.4g | %.3f | %+.3f | %.2f | %s |\n",
				wl, d.Name, aq1, amed, aq3, asp, bmed, bsp, worse, d.Bound, verdict)
		}
	}
	// What the nominal table of sides.go is taken from when ref/ is
	// frozen again.
	fmt.Fprintf(&b, "\nThe reference build's own readings, median over all %d runs of a workload:\n\n", 2*n)
	fmt.Fprintf(&b, "| workload | metric | reference reading | nominal in sides.go |\n|---|---|---|---|\n")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			if rs := refs[key{w.Name, d.Name}]; len(rs) > 0 {
				fmt.Fprintf(&b, "| %s | %s | %.4g %s | %g |\n", w.Name, d.Name, median(rs), d.Unit, nominal[w.Name][d.Name])
			}
		}
	}
	fmt.Print(b.String())
	path := filepath.Join(e.out, "AA.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err == nil {
		fmt.Printf("\nwritten to %s\n", path)
	}
	return code
}

// kernelRelease reads the running kernel's release string.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
