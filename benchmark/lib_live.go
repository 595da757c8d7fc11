package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/rules"
)

// liveLib is package lsdb as the workloads call it in-process.
// lib_live.go binds the calls to the checkout's own source; lib_ref.go
// is the same file bound to the frozen reference copy, and
// ref/freeze.sh generates it.
type liveLib struct{}

// loadLive builds an in-memory database from a world by library
// calls: how an embedding program gets its data in.
func loadLive(w *world) (*lsdb.Database, error) {
	db := lsdb.New()
	for _, f := range w.Facts {
		if err := db.Assert(f.S, f.R, f.T); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (liveLib) load(w *world) (embedded, error) {
	db, err := loadLive(w)
	return liveDB{db}, err
}

// writeWAL turns a world into the daemon's input: a durability log in
// dir that lsdbd -data replays on start.
func (liveLib) writeWAL(dir string, w *world) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, "default.log"), SyncPolicy: lsdb.SyncNever})
	if err != nil {
		return err
	}
	for _, f := range w.Facts {
		if err := db.Assert(f.S, f.R, f.T); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

// liveDB is one database embedded in the benchmark process.
type liveDB struct{ db *lsdb.Database }

// replay walks one trail through a fresh depth-2 on-demand browser
// and returns the digest of the tables it saw.
func (d liveDB) replay(t trail) string {
	b := browse.NewOnDemand(d.db.Engine(), nil, inferDepth)
	h := sha256.New()
	u := d.db.Universe()
	for _, name := range t {
		n := b.Neighborhood(d.db.Entity(name))
		for _, c := range n.Classes {
			fmt.Fprintf(h, "c %s\n", u.Name(c))
		}
		for _, groups := range [][]browse.RelGroup{n.Out, n.In} {
			for _, g := range groups {
				fmt.Fprintf(h, "r %s\n", u.Name(g.Rel))
				for _, e := range g.Entities {
					fmt.Fprintf(h, "  %s\n", u.Name(e))
				}
			}
			fmt.Fprintln(h, "-")
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (d liveDB) assert(s, r, t string) { d.db.MustAssert(s, r, t) }

// unrelatedRelation returns a relationship name whose dependency bit
// misses every narrow entry of the warm subgoal table, so that a write
// through it is outside every trail's dependency set.
func (d liveDB) unrelatedRelation() string {
	used, _, _ := d.db.Engine().CacheDepProfile()
	for i := 0; ; i++ {
		name := fmt.Sprintf("NOISE-REL-%d", i)
		if i == 255 || rules.DepBit(d.db.Entity(name))&used == 0 {
			return name
		}
	}
}

// closureBuilt reports whether the forward closure was materialized.
func (d liveDB) closureBuilt() bool { return d.db.Engine().Warm() }
