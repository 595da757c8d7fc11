package check

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestCutTransportOneShot pins the drop injector's semantics: the
// read crossing the budget returns the arrived prefix then errDropped,
// and every later request flows untouched.
func TestCutTransportOneShot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "0123456789")
	}))
	defer srv.Close()

	ct := &cutTransport{base: http.DefaultTransport, budget: 4}
	client := &http.Client{Transport: ct}

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, errDropped) {
		t.Fatalf("first read error = %v, want errDropped", err)
	}
	if string(body) != "0123" {
		t.Fatalf("arrived prefix = %q, want \"0123\"", body)
	}

	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "0123456789" {
		t.Fatalf("after the cut: body %q err %v, want full body", body, err)
	}
}

// replPoints is the sweep width: 8 fault points per scenario, 3 in
// short mode. lsdb-check's replication row runs the wider sweeps.
func replPoints() int {
	if testing.Short() {
		return 3
	}
	return 8
}

// TestReplScanSweep drives the full replication fault sweep: stream
// drops, follower crashes, bootstrap faults and primary crashes, each
// at byte-accurate budgets, asserting the prefix, recoverability and
// closure invariants at every point.
func TestReplScanSweep(t *testing.T) {
	points := replPoints()
	n, fail := replScan(1, points)
	if fail != nil {
		t.Fatal(fail)
	}
	if want := 4 * points; n < want {
		t.Fatalf("swept %d fault points, want >= %d", n, want)
	}
	t.Logf("checked %d replication fault points", n)
}

// TestReplScanSecondSeed keeps a second workload shape in the default
// suite so the sweep never specializes to one op sequence.
func TestReplScanSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("one seed in short mode")
	}
	n, fail := replScan(7, 4)
	if fail != nil {
		t.Fatal(fail)
	}
	t.Logf("checked %d replication fault points", n)
}

// TestReplFailureMentionsScenario pins the failure formatting the
// sweep reports through lsdb-check: the scenario, seed and point in the
// detail, under the replication row's name.
func TestReplFailureMentionsScenario(t *testing.T) {
	rows, err := Select("replication")
	if err != nil {
		t.Fatal(err)
	}
	o := rows[0]
	o.Run = func(*gen.World, Options) error { return faultPoint{"drop", 3, 9}.fail("lost %d records", 2) }
	f := o.Check(gen.Generate(3, gen.Small()), Options{})
	if f.Oracle != "replication" {
		t.Fatalf("oracle = %q", f.Oracle)
	}
	if want := "drop seed 3 point 9: lost 2 records"; f.Detail != want {
		t.Fatalf("detail = %q, want %q", f.Detail, want)
	}
	if !strings.Contains(f.Error(), "replication") {
		t.Fatalf("Error() = %q", f.Error())
	}
}
