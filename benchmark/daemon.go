package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A timed run drives two builds of the program in turn, operation by
// operation: the checkout's own (live) and the frozen reference copy
// under benchmark/ref (ref). Whatever the box does to one it does to
// the other, so the ratio of their timings holds still where the
// timings themselves do not; README.md has the measurements.
const (
	live = iota
	ref
)

var sideName = [2]string{"live", "ref"}

// env locates the checkout the benchmark runs in and the files it
// may write: everything goes under benchmark/out, which .gitignore
// names.
type env struct {
	root   string    // checkout root (holds go.mod and cmd/lsdbd)
	out    string    // root/benchmark/out
	lsdbd  [2]string // built daemon binaries, by side
	runDir string    // per-process scratch under out
}

// findRoot walks up from the working directory to the directory that
// holds the module and the benchmark.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "lsdbd", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with go.mod and cmd/lsdbd above the working directory")
		}
		dir = parent
	}
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// newEnv reads BENCHMARK.json, prepares the output directories and
// builds both daemons from the checkout's source.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if err := loadSpec(root); err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "benchmark", "out")}
	e.runDir = filepath.Join(e.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	for side, pkg := range [2]string{"./cmd/lsdbd", "./benchmark/ref/lsdbd"} {
		e.lsdbd[side] = filepath.Join(e.out, "bin", "lsdbd-"+sideName[side])
		cmd := exec.Command("go", "build", "-o", e.lsdbd[side], pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return e, nil
}

// cleanup removes this process's scratch directory.
func (e *env) cleanup() { os.RemoveAll(e.runDir) }

// daemon is one lsdbd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	execAt time.Time
	exited chan struct{} // closed once the child has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs one side's lsdbd with the given flags on a fresh
// loopback port. It returns as soon as the process is started;
// waitReady waits for it to answer.
func (e *env) startDaemon(side int, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(e.lsdbd[side], append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.stderr
	d.cmd.Stdout = io.Discard
	// The child must not outlive a benchmark that is killed itself.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.exited = make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls path until the daemon answers 200, and returns the
// time of that answer.
func (d *daemon) waitReady(hc *http.Client, path string, limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get(d.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("daemon exited before answering %s: %v\n%s", path, err, d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill() // also makes its stderr safe to read
			return time.Time{}, fmt.Errorf("daemon not ready on %s: %v\n%s", path, err, d.stderr.String())
		}
	}
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetOwnRSSPeak returns this process's freed memory to the system
// and resets its resident-set high-water mark to what is resident
// now, so that a later VmHWM is the peak of what ran in between and
// not of earlier work in the same process.
func resetOwnRSSPeak() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds reads user+system CPU time consumed so far by pid.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// kill sends SIGKILL and reaps the child: the process-level crash of
// ingest_recover, and the quick way to drop a daemon between set-ups.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}
