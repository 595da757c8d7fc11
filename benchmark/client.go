package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// httpRequests counts every request any client has sent; the control
// test for infer_ondemand checks that it stays put.
var httpRequests atomic.Int64

// client is one load-generating user: one keep-alive connection, one
// request in flight at a time.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	tr   *tracer // nil except in the traced half of a traced run

	attempted, failed int
	firstErr          error
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	httpRequests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// fail counts one failed operation and keeps the first cause.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

// check counts one attempted operation and verifies its answer: the
// status is 200 and every expected fragment is in the body. Refusals
// (429, 412) and transport errors are failures like any other.
func (c *client) check(what string, status int, body []byte, err error, expect []string) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	if status != http.StatusOK {
		c.fail("%s: status %d: %.200s", what, status, body)
		return false
	}
	for _, frag := range expect {
		if !bytes.Contains(body, []byte(frag)) {
			c.fail("%s: answer lacks %s", what, frag)
			return false
		}
	}
	return true
}

// runSession plays one session and returns the digest of everything
// the server answered. A batched session is one request carrying all
// its ops; its ops still count one by one. first is how long the
// session's first request took (the /probe of a probe session).
func (c *client) runSession(s session) (digest string, ok bool, first time.Duration) {
	h := sha256.New()
	ok = true
	sid := c.tr.begin("session:"+s.Kind, 0)
	defer c.tr.end(sid)
	t0 := time.Now()
	if s.Kind == "batch" {
		rid := c.tr.begin("http:batch", sid)
		status, body, err := c.do(http.MethodPost, "/batch", s.body)
		c.tr.end(rid)
		first = time.Since(t0)
		var expect []string
		for _, o := range s.Ops {
			expect = append(expect, o.Expect...)
		}
		ok = c.check("batch", status, body, err, expect)
		if ok && bytes.Count(body, []byte(`"status":200`)) != len(s.Ops) {
			c.fail("batch: not every op answered 200: %.200s", body)
			ok = false
		}
		c.attempted += len(s.Ops) - 1
		h.Write(body)
	} else {
		for i, o := range s.Ops {
			rid := c.tr.begin("http:"+o.Kind, sid)
			status, body, err := c.do(http.MethodGet, o.path(), nil)
			c.tr.end(rid)
			if i == 0 {
				first = time.Since(t0)
			}
			if !c.check(o.Kind+" "+o.Arg, status, body, err, o.Expect) {
				ok = false
			}
			h.Write(body)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), ok, first
}
