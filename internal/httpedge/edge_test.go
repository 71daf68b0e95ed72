package httpedge

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/metrics"
)

// testEdge is an edge over a fresh registry with an access log kept in
// memory, served on a real listener (connection reuse and the 413
// close are properties of the server, not of a recorder).
type testEdge struct {
	*Edge
	reg *metrics.Registry
	log *syncBuffer
	url string
}

// syncBuffer is the access log's sink: written by the server's
// goroutines, read by the test's.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func newTestEdge(t *testing.T, prefix string, cfg Config) *testEdge {
	t.Helper()
	te := &testEdge{reg: metrics.NewRegistry(), log: &syncBuffer{}}
	cfg.Metrics = NewMetrics(te.reg, prefix)
	cfg.AccessLog = slog.New(slog.NewTextHandler(te.log, nil))
	te.Edge = New(cfg)
	ts := httptest.NewServer(te.Edge)
	t.Cleanup(ts.Close)
	te.url = ts.URL
	return te
}

func (te *testEdge) scrape(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := te.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// do sends one request and returns the response with its body read.
func do(t *testing.T, method, url, body string, hdr ...string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(raw)
}

// echoBody reads the whole body and answers its length, or 413 through
// TooLarge when the route's cap was hit.
func echoBody(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		if !TooLarge(w, err, "request body") {
			WriteError(w, http.StatusBadRequest, err)
		}
		return
	}
	WriteJSON(w, http.StatusOK, map[string]int{"n": len(data)})
}

// TestRoutesAnswerThroughTheEdge replaces the two reflection lints: the
// mux is reachable through Handle and ServeHTTP only, so Routes() is
// the set of patterns that answer — each under its own route label —
// and anything else is labelled "unmatched".
func TestRoutesAnswerThroughTheEdge(t *testing.T) {
	te := newTestEdge(t, "pedd", Config{})
	te.Handle("GET /v1/things", func(w http.ResponseWriter, r *http.Request) {}) // writes nothing: 200
	te.Handle("POST /v1/things/{id}/op", echoBody)
	te.HandleCap("/v1/any/{rest...}", 8, echoBody)

	want := []string{"GET /healthz", "GET /readyz", "GET /v1/things", "POST /v1/things/{id}/op", "/v1/any/{rest...}"}
	got := te.Routes()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("Routes() = %q, want %q", got, want)
	}
	for _, pattern := range want {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			method, path = http.MethodPut, pattern
		}
		path = strings.NewReplacer("{id}", "x7", "{rest...}", "a/b").Replace(path)
		if resp, body := do(t, method, te.url+path, ""); resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d (%s), want 200", method, path, resp.StatusCode, body)
		}
	}
	if resp, _ := do(t, http.MethodGet, te.url+"/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodDelete, te.url+"/v1/things", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/things: status %d, want 405", resp.StatusCode)
	}

	body := te.scrape(t)
	for _, pattern := range want {
		method, _, ok := strings.Cut(pattern, " ")
		if !ok {
			method = http.MethodPut
		}
		series := `pedd_http_requests_total{route="` + pattern + `",method="` + method + `",code="2xx"} 1`
		if !strings.Contains(body, series) {
			t.Errorf("scrape lacks %s", series)
		}
		if count := `pedd_http_request_seconds_count{route="` + pattern + `"} 1`; !strings.Contains(body, count) {
			t.Errorf("scrape lacks %s", count)
		}
	}
	for _, series := range []string{
		`pedd_http_requests_total{route="unmatched",method="GET",code="4xx"} 1`,
		`pedd_http_requests_total{route="unmatched",method="DELETE",code="4xx"} 1`,
		`pedd_http_request_seconds_count{route="unmatched"} 2`,
		"pedd_http_inflight 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape lacks %s\n%s", series, body)
		}
	}
}

// TestAccessLogKeys pins the line an operator greps: one per request,
// these keys in this order, the status the client saw.
func TestAccessLogKeys(t *testing.T) {
	te := newTestEdge(t, "pedd", Config{})
	te.Handle("GET /v1/things/{id}", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusTeapot, errors.New("short and stout"))
	})
	do(t, http.MethodGet, te.url+"/v1/things/42?x=1", "", "X-Request-ID", "abc-123")
	line := strings.TrimSpace(te.log.String())
	re := regexp.MustCompile(`^time=\S+ level=INFO msg=request req_id=abc-123 method=GET path=/v1/things/42 route="GET /v1/things/\{id\}" status=418 dur=\S+$`)
	if !re.MatchString(line) {
		t.Errorf("access log line %q does not match %s", line, re)
	}
}

// TestRequestIDAtTheEdge: a well-formed client ID is echoed in the
// header and the error body, anything else is replaced by a minted one.
func TestRequestIDAtTheEdge(t *testing.T) {
	te := newTestEdge(t, "pedd", Config{})
	te.Handle("GET /fail", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusConflict, errors.New("no"))
	})
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, c := range []struct {
		name, sent string
		echoed     bool
	}{
		{"absent", "", false},
		{"well-formed", "caller-chose-this", true},
		{"64 bytes", strings.Repeat("a", 64), true},
		{"65 bytes", strings.Repeat("a", 65), false},
		{"4 KiB", strings.Repeat("x", 4096), false},
		{"inner space", "two words", false},
		{"control byte", "id\twith-tab", false}, // the one net/http lets through
		{"non-ASCII", "idé", false},
	} {
		var hdr []string
		if c.sent != "" {
			hdr = []string{"X-Request-ID", c.sent}
		}
		resp, body := do(t, http.MethodGet, te.url+"/fail", "", hdr...)
		got := resp.Header.Get("X-Request-ID")
		if c.echoed && got != c.sent {
			t.Errorf("%s: X-Request-ID = %q, want it echoed", c.name, got)
		}
		if !c.echoed && !minted.MatchString(got) {
			t.Errorf("%s: X-Request-ID = %.40q, want 16 minted hex digits", c.name, got)
		}
		var e ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.RequestID != got || e.Error != "no" {
			t.Errorf("%s: error body %q does not carry request_id %q", c.name, body, got)
		}
		if !strings.Contains(te.log.String(), "req_id="+got+" ") {
			t.Errorf("%s: access log lacks req_id=%s", c.name, got)
		}
	}
}

// TestDeadlineReachesTheHandler: Timeout expires the handler's context;
// without one the context carries no deadline.
func TestDeadlineReachesTheHandler(t *testing.T) {
	wait := func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			WriteJSON(w, http.StatusOK, map[string]string{"deadline": "none"})
			return
		}
		select {
		case <-r.Context().Done():
			WriteError(w, http.StatusGatewayTimeout, r.Context().Err())
		case <-time.After(10 * time.Second):
			WriteError(w, http.StatusInternalServerError, errors.New("deadline never fired"))
		}
	}
	timed := newTestEdge(t, "pedd", Config{Timeout: 20 * time.Millisecond})
	timed.Handle("GET /wait", wait)
	if resp, body := do(t, http.MethodGet, timed.url+"/wait", ""); resp.StatusCode != http.StatusGatewayTimeout ||
		!strings.Contains(body, context.DeadlineExceeded.Error()) {
		t.Errorf("with Timeout: %d %s, want 504 deadline exceeded", resp.StatusCode, body)
	}
	free := newTestEdge(t, "pedgw", Config{})
	free.Handle("GET /wait", wait)
	if resp, body := do(t, http.MethodGet, free.url+"/wait", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("without Timeout: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestBodyCapPerRoute: Handle routes share Config.MaxBody (DefaultMaxBody
// when zero, none when negative), HandleCap routes have their own, and a
// 413 closes the connection with the request ID still in the body — the
// cap reader must be handed the server's writer, not the recorder.
func TestBodyCapPerRoute(t *testing.T) {
	te := newTestEdge(t, "pedd", Config{MaxBody: 16})
	te.Handle("POST /small", echoBody)
	te.HandleCap("POST /big", 64, echoBody)
	te.HandleCap("POST /any", -1, echoBody)
	def := newTestEdge(t, "pedd", Config{})
	def.Handle("POST /small", echoBody)
	off := newTestEdge(t, "pedd", Config{MaxBody: -1})
	off.Handle("POST /small", echoBody)

	for _, c := range []struct {
		name, url string
		n, want   int
	}{
		{"at the shared cap", te.url + "/small", 16, 200},
		{"past the shared cap", te.url + "/small", 17, 413},
		{"own cap, past the shared one", te.url + "/big", 64, 200},
		{"past its own cap", te.url + "/big", 65, 413},
		{"no cap on this route", te.url + "/any", 4096, 200},
		{"default cap", def.url + "/small", DefaultMaxBody, 200},
		{"past the default cap", def.url + "/small", DefaultMaxBody + 1, 413},
		{"caps disabled", off.url + "/small", DefaultMaxBody + 1, 200},
	} {
		resp, body := do(t, http.MethodPost, c.url, strings.Repeat("z", c.n))
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
			continue
		}
		if c.want != http.StatusRequestEntityTooLarge {
			if resp.Close {
				t.Errorf("%s: a served request closed the connection", c.name)
			}
			continue
		}
		if !resp.Close {
			t.Errorf("%s: 413 left the connection open with the rest of the body on it", c.name)
		}
		var e ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.RequestID != resp.Header.Get("X-Request-ID") ||
			!strings.Contains(e.Error, "request body exceeds") {
			t.Errorf("%s: 413 body %q lacks the error or the request ID", c.name, body)
		}
	}
}

// TestDrainingGate: with DrainRefusal set, a draining edge refuses new
// work with 503 + Retry-After under the route label "draining", and
// keeps answering /healthz and /readyz; without it draining only flips
// /readyz.
func TestDrainingGate(t *testing.T) {
	ready := &Readiness{}
	gated := newTestEdge(t, "pedgw", Config{Ready: ready, DrainRefusal: "gateway draining"})
	gated.Handle("GET /work", func(w http.ResponseWriter, r *http.Request) {})
	open := newTestEdge(t, "pedd", Config{Ready: ready})
	open.Handle("GET /work", func(w http.ResponseWriter, r *http.Request) {})

	status := func(url string) int {
		resp, _ := do(t, http.MethodGet, url, "")
		return resp.StatusCode
	}
	if got := status(gated.url + "/work"); got != http.StatusOK {
		t.Fatalf("before draining: /work %d, want 200", got)
	}
	ready.SetDraining(true)
	resp, body := do(t, http.MethodGet, gated.url+"/work", "")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" ||
		!strings.Contains(body, `"error":"gateway draining"`) || !strings.Contains(body, `"request_id":"`+resp.Header.Get("X-Request-ID")) {
		t.Errorf("gated /work while draining: %d Retry-After=%q %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if got := status(gated.url + "/healthz"); got != http.StatusOK {
		t.Errorf("gated /healthz while draining: %d, want 200", got)
	}
	if resp, body := do(t, http.MethodGet, gated.url+"/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"status":"draining"`) {
		t.Errorf("gated /readyz while draining: %d %s", resp.StatusCode, body)
	}
	if got := status(open.url + "/work"); got != http.StatusOK {
		t.Errorf("ungated /work while draining: %d, want 200", got)
	}
	if got := status(open.url + "/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("ungated /readyz while draining: %d, want 503", got)
	}
	scrape := gated.scrape(t)
	for _, series := range []string{
		`pedgw_http_requests_total{route="draining",method="GET",code="5xx"} 1`,
		`pedgw_http_requests_total{route="GET /healthz",method="GET",code="2xx"} 1`,
		"pedgw_http_inflight 0",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("scrape lacks %s\n%s", series, scrape)
		}
	}
	ready.SetDraining(false)
	if got := status(gated.url + "/work"); got != http.StatusOK {
		t.Errorf("after draining: /work %d, want 200", got)
	}
}

// TestReadiness: nil is always ready, the drain bit wins over NotReady,
// and NotReady's reason is the 503's status.
func TestReadiness(t *testing.T) {
	reason := ""
	rd := &Readiness{NotReady: func() string { return reason }}
	probe := func(rd *Readiness) (int, string) {
		rec := httptest.NewRecorder()
		rd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	if code, body := probe(nil); code != 200 || body != `{"status":"ready"}` || (*Readiness)(nil).Draining() {
		t.Errorf("nil readiness: %d %s", code, body)
	}
	if code, body := probe(rd); code != 200 || body != `{"status":"ready"}` {
		t.Errorf("ready: %d %s", code, body)
	}
	reason = "no ready backends"
	if code, body := probe(rd); code != 503 || body != `{"status":"no ready backends"}` {
		t.Errorf("not ready: %d %s", code, body)
	}
	rd.SetDraining(true)
	if code, body := probe(rd); code != 503 || body != `{"status":"draining"}` {
		t.Errorf("draining: %d %s", code, body)
	}
}

// TestOpsHandler: /metrics, /healthz, /readyz and pprof on one mux, and
// nothing of the serving edge.
func TestOpsHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	NewMetrics(reg, "pedd")
	ready := &Readiness{}
	ts := httptest.NewServer(OpsHandler(reg, ready))
	defer ts.Close()
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") ||
		!strings.Contains(body, "# TYPE pedd_http_inflight gauge") {
		t.Errorf("/metrics: %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/debug/pprof/cmdline": 200, "/v1/sessions": 404} {
		if resp, _ := do(t, http.MethodGet, ts.URL+path, ""); resp.StatusCode != want {
			t.Errorf("%s: %d, want %d", path, resp.StatusCode, want)
		}
	}
	ready.SetDraining(true)
	if resp, _ := do(t, http.MethodGet, ts.URL+"/readyz", ""); resp.StatusCode != 503 {
		t.Errorf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestScrapeGolden pins what a fresh edge registers per prefix: family
// names, help strings, types, label sets and bucket schedule are an
// operator contract (dashboards and alerts are written against them).
func TestScrapeGolden(t *testing.T) {
	for prefix, help := range map[string][3]string{
		"pedd": {
			"HTTP requests by mux route, method, and status class.",
			"End-to-end HTTP request latency by mux route.",
			"HTTP requests currently being served.",
		},
		"pedgw": {
			"Gateway HTTP requests by mux route, method, and status class.",
			"End-to-end gateway request latency by mux route.",
			"Gateway requests currently being served.",
		},
	} {
		te := newTestEdge(t, prefix, Config{})
		te.Handle("GET /x", func(w http.ResponseWriter, r *http.Request) {})
		do(t, http.MethodGet, te.url+"/x", "")
		var want strings.Builder
		want.WriteString("# HELP " + prefix + "_http_requests_total " + help[0] + "\n")
		want.WriteString("# TYPE " + prefix + "_http_requests_total counter\n")
		want.WriteString(prefix + `_http_requests_total{route="GET /x",method="GET",code="2xx"} 1` + "\n")
		want.WriteString("# HELP " + prefix + "_http_request_seconds " + help[1] + "\n")
		want.WriteString("# TYPE " + prefix + "_http_request_seconds histogram\n")
		for _, le := range []string{"0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01",
			"0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "+Inf"} {
			want.WriteString(prefix + `_http_request_seconds_bucket{route="GET /x",le="` + le + `"} N` + "\n")
		}
		want.WriteString(prefix + `_http_request_seconds_sum{route="GET /x"} N` + "\n")
		want.WriteString(prefix + `_http_request_seconds_count{route="GET /x"} 1` + "\n")
		want.WriteString("# HELP " + prefix + "_http_inflight " + help[2] + "\n")
		want.WriteString("# TYPE " + prefix + "_http_inflight gauge\n")
		want.WriteString(prefix + "_http_inflight 0\n")
		// Bucket counts and the sum depend on how long the request took.
		got := regexp.MustCompile(`(?m)^(\S+_(?:bucket|sum)\{[^}]*\}) \S+$`).ReplaceAllString(te.scrape(t), "$1 N")
		if got != want.String() {
			t.Errorf("%s scrape moved:\n--- got\n%s--- want\n%s", prefix, got, want.String())
		}
	}
}
