// Crash fault injection: a failpoint filesystem that kills the
// durability log's writes after a byte budget, plus an oracle that
// replays a mutation workload up to every crash point and asserts the
// recovery contract:
//
//  1. reopening the log after a crash never reports ErrBadFormat —
//     torn appends, torn headers and half-finished compactions are
//     all recovered, not rejected;
//  2. the recovered fact set is always an exact prefix of the applied
//     mutation sequence (never a scramble of it); and
//  3. the prefix is at least as long as the acknowledged-durable
//     prefix — a commit acknowledged at the sync policy's durability
//     point is never lost.
package check

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/store"
)

// ErrCrashed is returned by every CrashFS operation once the byte
// budget is exhausted: from the store's point of view the process is
// dead and nothing else reaches the disk.
var ErrCrashed = errors.New("check: simulated crash")

// CrashFS implements store.FS over the real filesystem, but kills the
// "process" after a byte budget: the write that crosses the budget
// persists only its prefix up to the budget (a torn write), and every
// operation after that fails with ErrCrashed. Metadata operations
// (rename, remove, truncate) cost one byte each, so crash points land
// between the steps of multi-file protocols like atomic compaction.
type CrashFS struct {
	mu      sync.Mutex
	budget  int64
	written int64
	crashed bool
}

// NewCrashFS returns a CrashFS that crashes after budget bytes.
func NewCrashFS(budget int64) *CrashFS {
	return &CrashFS{budget: budget}
}

// Written returns the bytes consumed so far; with an effectively
// unlimited budget this measures a workload's total write cost.
func (c *CrashFS) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

// Crashed reports whether the budget has been exhausted.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// charge consumes n bytes of budget, returning how many of them are
// allowed before the crash, and ErrCrashed if the budget ran out now
// or earlier.
func (c *CrashFS) charge(n int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	if c.written+n > c.budget {
		allowed := c.budget - c.written
		c.written = c.budget
		c.crashed = true
		return allowed, ErrCrashed
	}
	c.written += n
	return n, nil
}

func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	if c.Crashed() {
		return nil, ErrCrashed
	}
	f, err := store.OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c}, nil
}

func (c *CrashFS) Rename(oldpath, newpath string) error {
	if _, err := c.charge(1); err != nil {
		return err
	}
	return store.OSFS{}.Rename(oldpath, newpath)
}

func (c *CrashFS) Remove(name string) error {
	if _, err := c.charge(1); err != nil {
		return err
	}
	return store.OSFS{}.Remove(name)
}

type crashFile struct {
	store.File
	fs *CrashFS
}

func (f *crashFile) Write(p []byte) (int, error) {
	allowed, err := f.fs.charge(int64(len(p)))
	if err != nil {
		// The torn write: the prefix that fit in the budget reaches the
		// disk, the rest never happened.
		if allowed > 0 {
			f.File.Write(p[:allowed])
		}
		return 0, err
	}
	return f.File.Write(p)
}

func (f *crashFile) Sync() error {
	if f.fs.Crashed() {
		return ErrCrashed
	}
	return f.File.Sync()
}

func (f *crashFile) Truncate(size int64) error {
	if _, err := f.fs.charge(1); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *crashFile) Read(p []byte) (int, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	return f.File.Read(p)
}

// crashConfig parameterizes one crash-point sweep.
type crashConfig struct {
	Seed            int64
	Points          int              // crash budgets swept evenly across the clean run's byte cost
	Policy          store.SyncPolicy // log sync policy under test
	CheckpointEvery int              // explicit checkpoint cadence in ops, also the auto-checkpoint threshold (0 disables)
	SyncEvery       int              // explicit SyncLog cadence in ops (0 disables; the durability floor for SyncNever)
}

// unlimited is a fault budget no clean run reaches.
const unlimited = 1 << 62

// cutSweep is the one driver of the fault sweeps. clean runs a
// scenario with nothing cut and returns the bytes each of its fault
// injectors let through; cut reruns the scenario at point i of points
// with each budget i/points of the way through that injector's clean
// cost. label names the sweep in its own failures. It returns the
// points checked and the first failure.
func cutSweep(label string, points int, clean func() ([]int64, error), cut func(point int, budgets []int64) error) (int, error) {
	costs, err := clean()
	if err != nil {
		return 0, err
	}
	for _, c := range costs {
		if c <= 0 {
			return 0, fmt.Errorf("%s: clean run cost nothing to cut (%v bytes)", label, costs)
		}
	}
	budgets := make([]int64, len(costs))
	for i := 0; i < points; i++ {
		for k, c := range costs {
			budgets[k] = c * int64(i) / int64(points)
		}
		if err := cut(i, budgets); err != nil {
			return i, err
		}
	}
	return points, nil
}

// logOp applies an assert or retract op through st's log. When the
// store changed, the op is applied to state as well and a copy of the
// result is returned; otherwise the copy is nil.
func logOp(u *fact.Universe, st *store.Store, op gen.Op, state map[[3]string]bool) (map[[3]string]bool, error) {
	f := u.NewFact(op.S, op.R, op.T)
	var changed bool
	var err error
	switch op.Kind {
	case gen.OpAssert:
		changed, err = st.InsertLogged(f)
	case gen.OpRetract:
		changed, err = st.DeleteLogged(f)
	}
	if !changed {
		return nil, err
	}
	if op.Kind == gen.OpAssert {
		state[triple(u, f)] = true
	} else {
		delete(state, triple(u, f))
	}
	return maps.Clone(state), err
}

func formatSet(s map[[3]string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, fmt.Sprintf("(%s,%s,%s)", k[0], k[1], k[2]))
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// crashRun replays ops against a fresh store on fs, a filesystem that
// crashes after its budget. It returns the sequence of states the store
// passed through (states[0] is empty; one entry per state-changing
// op), the index of the last state known durable when the crash hit —
// the recovery oracle's floor — and the error that stopped the replay
// early, if one did.
func crashRun(ops []gen.Op, cfg crashConfig, fs *CrashFS, path string) (states []map[[3]string]bool, floor int, err error) {
	u := fact.NewUniverse()
	st := store.New(u)
	st.SetFS(fs)

	states = []map[[3]string]bool{{}}
	cur := map[[3]string]bool{}
	if _, err := st.AttachLogPolicy(path, cfg.Policy); err != nil {
		return states, 0, err // crashed creating the log: nothing is durable
	}
	defer st.CloseLog() // best effort; after a crash this fails
	if cfg.CheckpointEvery > 0 {
		st.SetAutoCheckpoint(cfg.CheckpointEvery, path+".snap")
	}

	always := cfg.Policy == store.SyncAlways
	for i, op := range ops {
		after, err := logOp(u, st, op, cur)
		if after != nil {
			states = append(states, after)
		}
		if err != nil {
			return states, floor, err // crashed: no later op was acknowledged
		}
		// The op was acknowledged. Under SyncAlways that acknowledgement
		// IS the durability point; buffered policies promise nothing
		// until an explicit sync.
		if always {
			floor = len(states) - 1
		}
		if cfg.SyncEvery > 0 && (i+1)%cfg.SyncEvery == 0 {
			if err := st.SyncLog(); err != nil {
				return states, floor, err
			}
			floor = len(states) - 1
		}
		// Drive the checkpoint protocol deterministically so the sweep
		// lands crash points inside snapshot writes, compaction tmp
		// writes and the rename windows, not just plain appends. A
		// successful checkpoint fsyncs the compacted log, so it is a
		// durability point under every policy.
		if cfg.CheckpointEvery > 0 && (i+1)%cfg.CheckpointEvery == 0 {
			if err := st.Checkpoint(); err != nil {
				return states, floor, err
			}
			floor = len(states) - 1
		}
	}
	return states, floor, nil
}

// stateIndex returns the last index of got in states, or -1.
func stateIndex(got map[[3]string]bool, states []map[[3]string]bool) int {
	for k := len(states) - 1; k >= 0; k-- {
		if _, _, differ := diffSets(got, states[k]); !differ {
			return k
		}
	}
	return -1
}

// recoverAndCheck reopens the crashed log at path with the real
// filesystem and asserts the recovery contract against the recorded
// states.
func recoverAndCheck(states []map[[3]string]bool, floor int, checkpoints bool, path string) error {
	u := fact.NewUniverse()
	st := store.New(u)
	replayed, err := st.AttachLog(path)
	if err != nil {
		if errors.Is(err, store.ErrBadFormat) {
			return fmt.Errorf("recovery rejected the log as corrupt: %v", err)
		}
		return fmt.Errorf("recovery failed to reopen the log: %v", err)
	}
	defer st.CloseLog()
	recovered := tripleSet(u, st)

	match := stateIndex(recovered, states)
	if match < 0 {
		return fmt.Errorf("recovered state is not a prefix of the applied ops (replayed %d records): %s",
			replayed, formatSet(recovered))
	}
	if match < floor {
		return fmt.Errorf("lost an acknowledged-durable commit: recovered prefix %d < durable floor %d", match, floor)
	}

	// A checkpoint snapshot, when present, is atomic: it either loads
	// cleanly as some applied prefix or it does not exist.
	if snap := path + ".snap"; checkpoints {
		if _, serr := os.Stat(snap); serr == nil {
			su := fact.NewUniverse()
			ss := store.New(su)
			if err := ss.LoadSnapshotFile(snap); err != nil {
				return fmt.Errorf("checkpoint snapshot exists but does not load: %v", err)
			}
			if got := tripleSet(su, ss); stateIndex(got, states) < 0 {
				return fmt.Errorf("checkpoint snapshot is not a prefix state: %s", formatSet(got))
			}
		}
	}

	// The recovered log must remain writable: append a marker fact
	// durably, reopen once more, and find the recovered state plus the
	// marker.
	marker := u.NewFact("CRASH-PROBE", "in", "RECOVERED")
	if ok, err := st.InsertLogged(marker); !ok || err != nil {
		return fmt.Errorf("post-recovery append = (%v, %v)", ok, err)
	}
	u2 := fact.NewUniverse()
	st2 := store.New(u2)
	if _, err := st2.AttachLog(path); err != nil {
		return fmt.Errorf("reopen after post-recovery append: %v", err)
	}
	defer st2.CloseLog()
	recovered[triple(u, marker)] = true
	if err := sameFacts("fact", "the recovered state plus the marker", "the reopened log", recovered, tripleSet(u2, st2)); err != nil {
		return fmt.Errorf("post-recovery append not preserved: %v", err)
	}
	return nil
}

// crashSweep is the crash-recovery row: o.Points crash points through
// the durability log for the world's seed. It rotates sync policies
// across seeds so the sweep covers fsync-per-commit, explicit-sync, and
// timed-flush recovery.
func crashSweep(w *gen.World, o Options) error {
	cfg := crashConfig{Seed: w.Seed, Points: o.Points}
	switch w.Seed % 3 {
	case 0:
		cfg.Policy, cfg.CheckpointEvery = store.SyncAlways, 8
	case 1:
		cfg.Policy, cfg.SyncEvery = store.SyncNever, 5
	default:
		cfg.Policy, cfg.CheckpointEvery = store.SyncInterval(time.Millisecond), 8
	}
	_, err := crashScan(cfg)
	return err
}

// crashScan measures the workload's clean byte cost, then sweeps
// cfg.Points crash budgets evenly across it, checking the recovery
// contract at each. It returns the number of crash points checked and
// the first failure, if any.
func crashScan(cfg crashConfig) (int, error) {
	if cfg.Points <= 0 {
		cfg.Points = 25
	}
	ops := gen.LogWorkload(cfg.Seed, gen.Small())
	dir, err := os.MkdirTemp("", "lsdb-crash")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	checkpoints := cfg.CheckpointEvery > 0

	return cutSweep(fmt.Sprintf("crash seed %d", cfg.Seed), cfg.Points, func() ([]int64, error) {
		// Clean run: an unlimited budget measures the total byte cost,
		// and its recovery check is the no-crash baseline.
		fs, path := NewCrashFS(unlimited), filepath.Join(dir, "clean.log")
		states, floor, err := crashRun(ops, cfg, fs, path)
		if err == nil {
			err = recoverAndCheck(states, floor, checkpoints, path)
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d clean run: %v", cfg.Seed, err)
		}
		return []int64{fs.Written()}, nil
	}, func(i int, budgets []int64) error {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.log", i))
		states, floor, _ := crashRun(ops, cfg, NewCrashFS(budgets[0]), path)
		if err := recoverAndCheck(states, floor, checkpoints, path); err != nil {
			return fmt.Errorf("seed %d budget %d: %v", cfg.Seed, budgets[0], err)
		}
		os.Remove(path)
		os.Remove(path + ".snap")
		return nil
	})
}
