package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

//go:embed golden
var goldenFS embed.FS

var updateGolden = flag.Bool("update-golden", false, "rewrite benchmark/golden from this run instead of checking against it")

// pins holds, per workload and seed, the digests of the generated
// world and script. A run whose generators produce anything else is
// measuring a different workload and is refused.
type pins map[string]map[string]map[string]string

func loadPins() pins {
	p := pins{}
	if b, err := goldenFS.ReadFile("golden/pins.json"); err == nil {
		if err := json.Unmarshal(b, &p); err != nil {
			panic(fmt.Sprintf("golden/pins.json: %v", err))
		}
	}
	return p
}

// checkPins prints the run's input digests and compares them with the
// pinned ones, where the seed has pins and the world is full size.
func checkPins(cfg config, shas map[string]string, res *result) error {
	res.infof("world_sha256 %s", shas["world"])
	res.infof("script_sha256 %s", shas["script"])
	if cfg.scale != 1 || cfg.seconds != float64(spec.RunSeconds) {
		return nil
	}
	seed := fmt.Sprint(cfg.seed)
	if *updateGolden {
		if pendingPins[cfg.workload] == nil {
			pendingPins[cfg.workload] = map[string]map[string]string{}
		}
		pendingPins[cfg.workload][seed] = shas
		return nil
	}
	want, ok := loadPins()[cfg.workload][seed]
	if !ok {
		return nil
	}
	for _, k := range []string{"world", "script"} {
		if want[k] != shas[k] {
			return fmt.Errorf("%s seed %s: %s_sha256 is %s, pinned %s: the generators changed",
				cfg.workload, seed, k, shas[k], want[k])
		}
	}
	return nil
}

// pendingPins are the digests this process collected under
// -update-golden.
var pendingPins = pins{}

// savePins merges them into golden/pins.json in the checkout.
func savePins(e *env) error {
	if len(pendingPins) == 0 {
		return nil
	}
	path := filepath.Join(e.root, "benchmark", "golden", "pins.json")
	p := pins{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for wl, seeds := range pendingPins {
		if p[wl] == nil {
			p[wl] = seeds
			continue
		}
		for seed, shas := range seeds {
			p[wl][seed] = shas
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func goldenName(cfg config) string {
	return fmt.Sprintf("golden/%s.seed%d.txt", cfg.workload, cfg.seed)
}

// loadGolden returns the n answer digests pinned for this workload
// and seed, or n empty strings when none are pinned (the first lap
// then sets them and later laps must repeat them).
func loadGolden(cfg config, n int) []string {
	out := make([]string, n)
	if cfg.scale != 1 || *updateGolden {
		return out
	}
	b, err := goldenFS.ReadFile(goldenName(cfg))
	if err != nil {
		return out
	}
	lines := strings.Fields(string(b))
	if len(lines) != n {
		panic(fmt.Sprintf("%s has %d digests, script has %d entries", goldenName(cfg), len(lines), n))
	}
	return lines
}

func saveGolden(e *env, cfg config, digests []string) error {
	for i, d := range digests {
		if d == "" {
			return fmt.Errorf("script entry %d was never reached: run longer to record golden digests", i)
		}
	}
	path := filepath.Join(e.root, "benchmark", goldenName(cfg))
	return os.WriteFile(path, []byte(strings.Join(digests, "\n")+"\n"), 0o644)
}
