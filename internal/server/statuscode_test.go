package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
)

// TestOpErrorStatusTable pins the error → status mapping used by
// every handler, open and import included: only a closed session is
// 410; a quarantined session or an analysis panic is 500, backpressure
// is 429 (queue, exec slots) or 503 (session cap, migration freeze),
// deadlines are 504, client disconnects are 499, and everything else is
// a 422 command-level rejection.
func TestOpErrorStatusTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"closed", ErrSessionClosed, http.StatusGone},
		{"closed wrapped", fmt.Errorf("op: %w", ErrSessionClosed), http.StatusGone},
		{"failed", ErrSessionFailed, http.StatusInternalServerError},
		{"failed wrapped", fmt.Errorf("%w: analysis panicked", ErrSessionFailed), http.StatusInternalServerError},
		{"readonly", ErrSessionReadOnly, http.StatusServiceUnavailable},
		{"readonly wrapped", fmt.Errorf("%w: journal append: disk full", ErrSessionReadOnly), http.StatusServiceUnavailable},
		{"queue full", ErrQueueFull, http.StatusTooManyRequests},
		{"migrating", ErrSessionMigrating, http.StatusServiceUnavailable},
		{"migrating wrapped", fmt.Errorf("%w: frozen for handoff", ErrSessionMigrating), http.StatusServiceUnavailable},
		{"exists", ErrSessionExists, http.StatusConflict},
		{"exists wrapped", fmt.Errorf("open: %w", ErrSessionExists), http.StatusConflict},
		{"plan conflict", ErrPlanConflict, http.StatusConflict},
		{"exec busy", execguard.ErrBusy, http.StatusTooManyRequests},
		{"exec busy wrapped", fmt.Errorf("run: %w", execguard.ErrBusy), http.StatusTooManyRequests},
		{"too many sessions", ErrTooManySessions, http.StatusServiceUnavailable},
		{"too many sessions wrapped", fmt.Errorf("import s1: %w", ErrTooManySessions), http.StatusServiceUnavailable},
		{"internal", ErrInternal, http.StatusInternalServerError},
		{"internal wrapped", fmt.Errorf("import s1: reanalyzing source: %w", fmt.Errorf("%w: analysis of a.f panicked", ErrInternal)), http.StatusInternalServerError},
		{"backend disabled", fmt.Errorf("backend %q is %w", "compile", errBackendDisabled), http.StatusNotImplemented},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, statusClientClosedRequest},
		{"command error", errors.New("loop 99 out of range"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		writeOpError(w, c.err)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, w.Code, c.want)
		}
		// Transient refusals made before any work carry Retry-After: the
		// two 429s, the migration freeze and the session cap — and nothing
		// else does (a read-only 503 will not heal by waiting).
		transient := errors.Is(c.err, ErrQueueFull) || errors.Is(c.err, execguard.ErrBusy) ||
			errors.Is(c.err, ErrSessionMigrating) || errors.Is(c.err, ErrTooManySessions)
		if got := w.Header().Get("Retry-After") != ""; got != transient {
			t.Errorf("%s: Retry-After present = %v, want %v", c.name, got, transient)
		}
	}
}

// sessionHandlers enumerates every {id}-scoped route that runs on the
// session, each driven through Server.ServeHTTP with a request that is
// valid at the JSON layer, so lifecycle errors — not body errors —
// decide the status.
func sessionHandlers(s *Server) map[string]func(w http.ResponseWriter, ss *Session) {
	mk := func(method, route, body string) func(http.ResponseWriter, *Session) {
		return func(w http.ResponseWriter, ss *Session) {
			var rd io.Reader
			if body != "" {
				rd = strings.NewReader(body)
			}
			s.ServeHTTP(w, httptest.NewRequest(method, "/v1/sessions/"+ss.ID+"/"+route, rd))
		}
	}
	return map[string]func(http.ResponseWriter, *Session){
		"cmd":       mk(http.MethodPost, "cmd", `{"line":"loops"}`),
		"select":    mk(http.MethodPost, "select", `{"loop":1}`),
		"deps":      mk(http.MethodGet, "deps", ""),
		"classify":  mk(http.MethodPost, "classify", `{"var":"a","class":"private"}`),
		"transform": mk(http.MethodPost, "transform", `{"name":"parallelize","args":["1"],"check_only":true}`),
		"edit":      mk(http.MethodPost, "edit", `{"stmt":1,"text":"x = 1"}`),
		"undo":      mk(http.MethodPost, "undo", ""),
	}
}

// TestClosedSessionIs410Everywhere covers the regression where
// handleCmd and handleTransform mapped *every* session error to 410:
// now a closed session is 410 on every route, and a quarantined
// session is 500 on every route — never the other way around. Both stay
// registered, so the routes resolve them and their condition answers.
func TestClosedAndFailedSessionStatusAllHandlers(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	srv := New(m)

	closed, _ := mustOpen(t, m, "onedim")
	closed.close()

	failed, _ := mustOpen(t, m, "onedim")
	failed.quarantine("injected panic for status test", []byte("stack"))

	for name, call := range sessionHandlers(srv) {
		w := httptest.NewRecorder()
		call(w, closed)
		if w.Code != http.StatusGone {
			t.Errorf("%s on closed session: status %d, want 410 (body %s)", name, w.Code, w.Body.String())
		}
		w = httptest.NewRecorder()
		call(w, failed)
		if w.Code != http.StatusInternalServerError {
			t.Errorf("%s on failed session: status %d, want 500 (body %s)", name, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "session failed") {
			t.Errorf("%s on failed session: diagnostic body missing, got %s", name, w.Body.String())
		}
	}
}

// TestHTTPStatusCodes drives the real HTTP stack through every
// distinct rejection: malformed bodies, unknown fields, trailing
// garbage, oversized bodies, unknown sessions/workloads, command
// errors, and the session cap.
func TestHTTPStatusCodes(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, MaxSessions: 2})
	ts := httptest.NewServer(NewWith(m, Options{MaxBodyBytes: 4096}))
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Malformed JSON.
	if code, _ := post("/v1/sessions", `{"workload":`); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", code)
	}
	// Unknown field, named in the message.
	code, body := post("/v1/sessions", `{"wrkload":"onedim"}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	if !strings.Contains(body, "wrkload") {
		t.Errorf("unknown-field message does not name the field: %s", body)
	}
	// Trailing garbage after the JSON value.
	code, body = post("/v1/sessions", `{"workload":"onedim"} {"x":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("trailing garbage: %d, want 400", code)
	}
	if !strings.Contains(body, "trailing") {
		t.Errorf("trailing-garbage message: %s", body)
	}
	// Oversized body.
	big := `{"path":"big.f","source":"` + strings.Repeat("x", 8192) + `"}`
	if code, _ := post("/v1/sessions", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", code)
	}
	// Unknown workload / empty open are command-level rejections.
	if code, _ := post("/v1/sessions", `{"workload":"nosuch"}`); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown workload: %d, want 422", code)
	}
	if code, _ := post("/v1/sessions", `{}`); code != http.StatusUnprocessableEntity {
		t.Errorf("empty open: %d, want 422", code)
	}
	// Unknown session on every {id} route.
	for _, r := range []struct{ method, path, body string }{
		{"POST", "/v1/sessions/nope/cmd", `{"line":"loops"}`},
		{"POST", "/v1/sessions/nope/select", `{"loop":1}`},
		{"GET", "/v1/sessions/nope/deps", ""},
		{"GET", "/v1/sessions/nope", ""},
		{"POST", "/v1/sessions/nope/classify", `{"var":"a","class":"private"}`},
		{"POST", "/v1/sessions/nope/transform", `{"name":"parallelize"}`},
		{"POST", "/v1/sessions/nope/edit", `{"stmt":1,"text":"x = 1"}`},
		{"POST", "/v1/sessions/nope/undo", ""},
	} {
		var code int
		if r.method == "GET" {
			code, _ = get(r.path)
		} else {
			code, _ = post(r.path, r.body)
		}
		if code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", r.method, r.path, code)
		}
	}

	// Fill the session cap, then expect 503 + Retry-After. Session IDs
	// are random — capture them from the open responses.
	openID := func() string {
		t.Helper()
		code, body := post("/v1/sessions", `{"workload":"onedim"}`)
		if code != http.StatusCreated {
			t.Fatalf("open: %d (%s)", code, body)
		}
		var got struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil || got.ID == "" {
			t.Fatalf("open response ID: %v (%s)", err, body)
		}
		return got.ID
	}
	id1 := openID()
	id2 := openID()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"workload":"onedim"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open past cap: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// Closing a session frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id1, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: %d", dresp.StatusCode)
	}
	if code, _ := post("/v1/sessions", `{"workload":"onedim"}`); code != http.StatusCreated {
		t.Errorf("open after close: %d, want 201", code)
	}

	// A command-level failure on a live session is 422, not 410.
	if code, _ := post("/v1/sessions/"+id2+"/select", `{"loop":99}`); code != http.StatusUnprocessableEntity {
		t.Errorf("bad select: %d, want 422", code)
	}

	// Status endpoint for a healthy session.
	code, body = get("/v1/sessions/" + id2)
	if code != http.StatusOK {
		t.Errorf("status: %d, want 200", code)
	}
	if !strings.Contains(body, `"state":"active"`) {
		t.Errorf("status body missing active state: %s", body)
	}
}

// TestRequestDeadline504 checks the per-request deadline end to end:
// a command that outlives Options.ReqTimeout answers 504 instead of
// hanging the client.
func TestRequestDeadline504(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(NewWith(m, Options{ReqTimeout: 50 * time.Millisecond}))
	defer ts.Close()

	_, resp := mustOpen(t, m, "onedim")
	ss := m.Get(resp.ID)
	// Wedge the actor directly (a sleeping command), then issue an
	// HTTP request that must time out while queued.
	block := make(chan struct{})
	go ss.post(context.Background(), func() { <-block }, false)
	defer close(block)
	time.Sleep(10 * time.Millisecond) // let the actor pick up the block

	hresp, err := http.Post(ts.URL+"/v1/sessions/"+resp.ID+"/cmd", "application/json",
		strings.NewReader(`{"line":"loops"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(hresp.Body)
		t.Fatalf("blocked command: %d (%s), want 504", hresp.StatusCode, b)
	}
}

// TestAnalysisPanicIs500OnOpenAndImport: a panic in the analysis is the
// server's failure whichever door the source came through. Import used
// to flatten the cause with %v and answer 422 where open answered 500.
func TestAnalysisPanicIs500OnOpenAndImport(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, MaxSessions: 1})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)
	stream, err := encodeRecord(&record{Op: recOpen, Seq: 1, Path: "boom.f", Source: boomSource})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.Analyze, faultpoint.Fault{Match: "boom.f", Panic: true})

	var apiErr *APIError
	_, err = c.Open(bg, OpenRequest{Path: "boom.f", Source: boomSource})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("open into an analysis panic: %v, want 500", err)
	}
	_, err = c.Import(bg, "imp-boom", stream)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("import into an analysis panic: %v, want 500", err)
	}
	if !errors.Is(func() error { _, err := m.Import(bg, "imp-boom2", stream); return err }(), ErrInternal) {
		t.Error("Manager.Import does not wrap ErrInternal")
	}
	if m.Get("imp-boom") != nil || len(m.List(bg)) != 0 {
		t.Error("a failed open or import left a session registered")
	}
	if got := m.Metrics().SessionsLive.Value(); got != 0 {
		t.Errorf("SessionsLive = %d after three failed admissions, want 0", got)
	}
	// Each failure gave its reserved slot back: the cap of one still admits.
	faultpoint.Reset()
	mustOpen(t, m, "onedim")
}

// TestUnitlessSourceIs422OnOpenAndImport: a source with no program unit
// is refused where it enters — 422, like any source that does not parse
// — with the artifact cache on and off. It used to open, and the first
// read then quarantined the session on a nil unit state.
func TestUnitlessSourceIs422OnOpenAndImport(t *testing.T) {
	const src = "c just a comment\n"
	stream, err := encodeRecord(&record{Op: recOpen, Seq: 1, Path: "nounit.f", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []int{0, 8} {
		m := newTestManager(t, Config{CacheSize: cache})
		ts := httptest.NewServer(New(m))
		c := NewClient(ts.URL)
		var apiErr *APIError
		_, err := c.Open(bg, OpenRequest{Path: "nounit.f", Source: src})
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity ||
			!strings.Contains(apiErr.Message, "nounit.f: no program unit") {
			t.Errorf("cache %d: open of a unit-less source: %v, want 422 naming the path", cache, err)
		}
		_, err = c.Import(bg, "imp-nounit", stream)
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
			t.Errorf("cache %d: import of a unit-less source: %v, want 422", cache, err)
		}
		if len(m.List(bg)) != 0 {
			t.Errorf("cache %d: a refused open or import left a session registered", cache)
		}
		ts.Close()
	}
}

// TestDepsClassesAreTheREPLs: the typed deps route takes the class
// names `deps` takes, through the pane's one filter. A class `deps`
// does not know is a bad request naming it — it used to answer 200
// with an empty list, so `?class=flow` looked like a loop without flow
// dependences — and a filter that leaves nothing is an empty list, not
// null, on a live and on an artifact-backed session alike.
func TestDepsClassesAreTheREPLs(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	live, _ := mustOpen(t, m, "onedim")
	art, resp := mustOpen(t, m, "onedim")
	if !resp.Cached {
		t.Fatal("second open missed the cache")
	}
	for _, ss := range []*Session{live, art} {
		if _, err := ss.Select(bg, SelectRequest{Loop: 1}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			query, body string
			status      int
		}{
			{"class=flow", `flow`, http.StatusBadRequest},
			{"class=true,input", `input`, http.StatusBadRequest},
			{"class=true&sym=nosuch", `"deps":[]`, http.StatusOK},
			{"class=true,anti,output,control", `"deps":[`, http.StatusOK},
		} {
			hresp, err := http.Get(ts.URL + "/v1/sessions/" + ss.ID + "/deps?" + c.query)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(hresp.Body)
			hresp.Body.Close()
			if hresp.StatusCode != c.status || !strings.Contains(string(b), c.body) {
				t.Errorf("live %v, ?%s: %d %s; want %d with %s", ss == live, c.query, hresp.StatusCode, b, c.status, c.body)
			}
		}
	}
	if art.Info(bg).Live {
		t.Error("a typed deps read materialized the artifact-backed session")
	}
}
