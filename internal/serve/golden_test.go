package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// goldenDepthQuota is the corpus tenant's inference-depth quota, so
// the over-quota rows have a quota to exceed.
const goldenDepthQuota = 3

// goldenRows is the read-op corpus: each row is one call in its GET
// form and in its POST /batch op form. Per op it holds a valid call, a
// paged call where the op pages, a missing parameter, a malformed
// parameter and, for derive, an over-quota depth. Traced calls are
// left out: their spans carry durations.
var goldenRows = []struct{ get, op string }{
	{"/query?q=" + escape("(JOHN, FAVORITE-MUSIC, ?p)"), `{"op":"query","q":"(JOHN, FAVORITE-MUSIC, ?p)"}`},
	{"/query", `{"op":"query"}`},
	{"/query?q=" + escape("(JOHN"), `{"op":"query","q":"(JOHN"}`},

	{"/probe?q=" + escape("(JOHN, LOWES, ?z)"), `{"op":"probe","q":"(JOHN, LOWES, ?z)"}`},
	{"/probe", `{"op":"probe"}`},
	{"/probe?q=" + escape("((("), `{"op":"probe","q":"((("}`},

	{"/navigate?entity=JOHN", `{"op":"navigate","entity":"JOHN"}`},
	{"/navigate?entity=JOHN&offset=1&limit=2", `{"op":"navigate","entity":"JOHN","offset":1,"limit":2}`},
	{"/navigate", `{"op":"navigate"}`},
	{"/navigate?entity=JOHN&offset=x", `{"op":"navigate","entity":"JOHN","offset":"x"}`},
	{"/navigate?entity=JOHN&offset=-1", `{"op":"navigate","entity":"JOHN","offset":-1}`},

	{"/between?src=LEOPOLD&tgt=MOZART", `{"op":"between","src":"LEOPOLD","tgt":"MOZART"}`},
	{"/between?src=LEOPOLD", `{"op":"between","src":"LEOPOLD"}`},
	{"/between?src=NOBODY&tgt=MOZART", `{"op":"between","src":"NOBODY","tgt":"MOZART"}`},

	{"/try?entity=MOZART", `{"op":"try","entity":"MOZART"}`},
	{"/try?entity=JOHN&offset=2&limit=3", `{"op":"try","entity":"JOHN","offset":2,"limit":3}`},
	{"/try", `{"op":"try"}`},
	{"/try?entity=JOHN&limit=x", `{"op":"try","entity":"JOHN","limit":"x"}`},
	{"/try?entity=JOHN&limit=-1", `{"op":"try","entity":"JOHN","limit":-1}`},

	{"/search?q=mozart", `{"op":"search","q":"mozart"}`},
	{"/search?q=mozart&k=2&offset=1&preview=2", `{"op":"search","q":"mozart","k":2,"offset":1,"preview":2}`},
	{"/search", `{"op":"search"}`},
	{"/search?q=mozart&k=abc", `{"op":"search","q":"mozart","k":"abc"}`},
	{"/search?q=mozart&k=101", `{"op":"search","q":"mozart","k":101}`},
	{"/search?q=mozart&offset=-1", `{"op":"search","q":"mozart","offset":-1}`},

	{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN"}`},
	{"/derive?s=ONLY", `{"op":"derive","s":"ONLY"}`},
	{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&depth=x", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN","depth":"x"}`},
	{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&depth=0", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN","depth":0}`},
	{"/derive?s=PC%239-WAM&r=FAVORITE-OF&t=JOHN&depth=5", `{"op":"derive","s":"PC#9-WAM","r":"FAVORITE-OF","t":"JOHN","depth":5}`},

	{"/check", `{"op":"check"}`},
}

// TestReadOpsGolden replays the corpus on both surfaces and requires
// every status and body to be the bytes in testdata/read_ops.golden.
// Each entry there is a request line ("GET <path>" or "BATCH <op>")
// followed by "<status> <body>"; a batch entry records the whole
// POST /batch answer.
func TestReadOpsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/read_ops.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := readOpsCorpus(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("corpus has %d lines, golden %d", len(gl), len(wl))
	}
	for i := 1; i < len(gl); i += 2 {
		if gl[i] != wl[i] {
			t.Errorf("%s\n got: %s\nwant: %s", gl[i-1], gl[i], wl[i])
		}
	}
}

func readOpsCorpus(t *testing.T) []byte {
	t.Helper()
	s := serve.New()
	if _, err := s.AddTenant(serve.DefaultTenant, dataset.Music(), serve.Quotas{MaxDepth: goldenDepthQuota}); err != nil {
		t.Fatal(err)
	}
	mux := s.Mux()
	call := func(method, path, body string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.String())
	}
	var b strings.Builder
	for _, row := range goldenRows {
		fmt.Fprintf(&b, "GET %s\n%s", row.get, call(http.MethodGet, row.get, ""))
		fmt.Fprintf(&b, "BATCH %s\n%s", row.op, call(http.MethodPost, "/batch", `{"ops":[`+row.op+`]}`))
	}
	return []byte(b.String())
}
