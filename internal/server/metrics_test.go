package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parascope/internal/httpedge"
)

// scrape renders a registry to text the way GET /metrics would.
func scrape(t *testing.T, m *Metrics) string {
	t.Helper()
	var b strings.Builder
	if err := m.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return b.String()
}

// promValues parses an exposition into sample name{labels} → value.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in line %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsExpositionFormat pins the text format: HELP/TYPE
// metadata, plain and labeled samples, and cumulative histogram
// buckets with sum and count.
func TestMetricsExpositionFormat(t *testing.T) {
	m := NewMetrics()
	m.SessionsOpened.Add(3)
	m.SessionsLive.Set(2)
	m.HTTPRequests.With("POST /v1/sessions", "POST", "2xx").Add(5)
	m.QueueWait.Observe(0.0002)
	m.QueueWait.Observe(100) // past the last bound → +Inf bucket
	body := scrape(t, m)

	for _, want := range []string{
		"# HELP pedd_sessions_opened_total ",
		"# TYPE pedd_sessions_opened_total counter",
		"pedd_sessions_opened_total 3",
		"# TYPE pedd_sessions_live gauge",
		"pedd_sessions_live 2",
		`pedd_http_requests_total{route="POST /v1/sessions",method="POST",code="2xx"} 5`,
		`pedd_session_queue_wait_seconds_bucket{le="0.00025"} 1`,
		`pedd_session_queue_wait_seconds_bucket{le="10"} 1`,
		`pedd_session_queue_wait_seconds_bucket{le="+Inf"} 2`,
		"pedd_session_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if sum := m.QueueWait.Sum(); sum < 100 || sum > 100.001 {
		t.Errorf("histogram sum = %v, want ~100.0002", sum)
	}
}

// checkHistogramInvariants verifies, for every histogram family in an
// exposition, that the +Inf bucket equals the count sample.
func checkHistogramInvariants(t *testing.T, body string) {
	t.Helper()
	vals := promValues(t, body)
	checked := 0
	for series, count := range vals {
		name, labels, ok := strings.Cut(series, "_count")
		if !ok || (labels != "" && !strings.HasPrefix(labels, "{")) {
			continue
		}
		inf := name + "_bucket{"
		if labels != "" {
			inf = name + "_bucket{" + strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}") + ","
		}
		inf += `le="+Inf"}`
		infV, found := vals[inf]
		if !found {
			t.Errorf("histogram %s has no +Inf bucket (looked for %q)", series, inf)
			continue
		}
		if infV != count {
			t.Errorf("histogram %s: +Inf bucket %v != count %v", series, infV, count)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no histogram families found in exposition")
	}
}

// TestMetricsFullSessionFlow is the acceptance check: a full
// open → select → deps → transform session over HTTP, then a scrape
// that must show request latency histograms, cache hit/miss counters,
// session gauges, per-phase analysis timings, and a materialization.
func TestMetricsFullSessionFlow(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	ops := httptest.NewServer(httpedge.OpsHandler(m.Metrics().Registry, nil))
	defer ops.Close()
	c := NewClient(ts.URL)

	open1, err := c.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.Select(bg, open1.ID, SelectRequest{Loop: 1}); err != nil {
		t.Fatalf("select: %v", err)
	}
	if _, err := c.Deps(bg, open1.ID, DepQuery{}); err != nil {
		t.Fatalf("deps: %v", err)
	}
	open2, err := c.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	if !open2.Cached {
		t.Fatal("second open of identical source should hit the cache")
	}
	// Transforming the artifact-backed session forces a materialize.
	if _, err := c.Transform(bg, open2.ID, TransformRequest{Name: "parallelize", Args: []string{"1"}}); err != nil {
		t.Fatalf("transform: %v", err)
	}

	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("scrape content type = %q, want text/plain", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	vals := promValues(t, body)

	atLeast := func(series string, min float64) {
		t.Helper()
		if vals[series] < min {
			t.Errorf("%s = %v, want >= %v\n%s", series, vals[series], min, body)
		}
	}
	atLeast(`pedd_http_requests_total{route="POST /v1/sessions",method="POST",code="2xx"}`, 2)
	atLeast(`pedd_http_request_seconds_count{route="POST /v1/sessions"}`, 2)
	atLeast(`pedd_http_request_seconds_count{route="POST /v1/sessions/{id}/transform"}`, 1)
	atLeast("pedd_cache_misses_total", 1)
	atLeast("pedd_cache_hits_total", 1)
	atLeast("pedd_cache_materializations_total", 1)
	atLeast("pedd_sessions_opened_total", 2)
	atLeast("pedd_session_queue_wait_seconds_count", 1)
	atLeast("pedd_actor_service_seconds_count", 1)
	for _, phase := range []string{"parse", "interproc", "dataflow", "dependence", "perf"} {
		atLeast(fmt.Sprintf(`pedd_analysis_phase_seconds_count{phase=%q}`, phase), 1)
	}
	if got := vals["pedd_sessions_live"]; got != 2 {
		t.Errorf("pedd_sessions_live = %v, want 2", got)
	}
	checkHistogramInvariants(t, body)

	// Closing both sessions drains the gauge.
	if err := c.CloseSession(bg, open1.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.CloseSession(bg, open2.ID); err != nil {
		t.Fatalf("close: %v", err)
	}
	after := promValues(t, scrape(t, m.Metrics()))
	if got := after["pedd_sessions_live"]; got != 0 {
		t.Errorf("pedd_sessions_live after closes = %v, want 0", got)
	}
	if got := after["pedd_sessions_closed_total"]; got < 2 {
		t.Errorf("pedd_sessions_closed_total = %v, want >= 2", got)
	}
}

// TestMetricsScrapeUnderConcurrentLoad runs 8 concurrent sessions
// while a scraper hammers the exposition — under -race this is the
// data-race check for the whole metrics path — and asserts counters
// are monotone between scrapes and histograms are sum-consistent
// after the load quiesces.
func TestMetricsScrapeUnderConcurrentLoad(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	const sessions = 8
	workloadNames := []string{"direct", "onedim", "slab2d", "shear"}
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			open, err := c.Open(bg, OpenRequest{Workload: workloadNames[i%len(workloadNames)]})
			if err != nil {
				errCh <- fmt.Errorf("open: %w", err)
				return
			}
			for j := 0; j < 5; j++ {
				if _, err := c.Cmd(bg, open.ID, "loops"); err != nil {
					errCh <- fmt.Errorf("cmd: %w", err)
					return
				}
				if _, err := c.Deps(bg, open.ID, DepQuery{}); err != nil {
					errCh <- fmt.Errorf("deps: %w", err)
					return
				}
			}
			if err := c.CloseSession(bg, open.ID); err != nil {
				errCh <- fmt.Errorf("close: %w", err)
			}
		}(i)
	}

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	var scrapes atomic.Int64
	var snapshots []map[string]float64
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := scrape(t, m.Metrics())
			snapshots = append(snapshots, promValues(t, body))
			scrapes.Add(1)
		}
	}()

	wg.Wait()
	close(stop)
	<-scraperDone
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if scrapes.Load() == 0 {
		t.Fatal("scraper never ran")
	}

	// Counters must be monotone scrape over scrape.
	for i := 1; i < len(snapshots); i++ {
		for series, prev := range snapshots[i-1] {
			if !strings.Contains(series, "_total") && !strings.Contains(series, "_count") &&
				!strings.Contains(series, "_bucket") {
				continue
			}
			if cur, ok := snapshots[i][series]; ok && cur < prev {
				t.Fatalf("counter %s went backwards: %v -> %v (scrape %d)", series, prev, cur, i)
			}
		}
	}
	checkHistogramInvariants(t, scrape(t, m.Metrics()))
	final := promValues(t, scrape(t, m.Metrics()))
	if got := final["pedd_sessions_live"]; got != 0 {
		t.Errorf("pedd_sessions_live after load = %v, want 0", got)
	}
	if got := final["pedd_session_queue_depth"]; got != 0 {
		t.Errorf("pedd_session_queue_depth after load = %v, want 0", got)
	}
}

// TestRequestIDEchoAndGeneration: a client-sent X-Request-ID is
// echoed on the response and inside error bodies; absent one, the
// server generates a 16-hex-digit ID.
func TestRequestIDEchoAndGeneration(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/nope", nil)
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Errorf("echoed request ID = %q, want caller's", got)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"request_id":"caller-chose-this"`) {
		t.Errorf("error body does not echo request ID: %s", body)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	gen := resp2.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Errorf("generated request ID %q is not 16 hex digits", gen)
	}
}

// TestClientRequestIDPropagation: the client stamps one request ID on
// every attempt of a logical request, and surfaces it in APIError so
// ped -remote failures are correlatable with the daemon's access log.
func TestClientRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get("X-Request-ID"))
		n := len(ids)
		mu.Unlock()
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		if n < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"busy"}`)
			return
		}
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"no such workload"}`)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.BaseBackoff = 1
	_, err := c.Open(bg, OpenRequest{Workload: "nope"})
	if err == nil {
		t.Fatal("open against failing server succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("expected 3 attempts, saw %d", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Errorf("request ID not stable across retries: %q", ids)
	}
	apiErr := &APIError{}
	if !asAPIError(err, &apiErr) {
		t.Fatalf("error is not APIError: %v", err)
	}
	if apiErr.RequestID != ids[0] {
		t.Errorf("APIError.RequestID = %q, want %q", apiErr.RequestID, ids[0])
	}
	if !strings.Contains(err.Error(), "[req "+ids[0]+"]") {
		t.Errorf("error text %q does not carry the request ID", err.Error())
	}
}

func asAPIError(err error, into **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*into = e
	}
	return ok
}

// TestParseRetryAfter covers both RFC 9110 forms and garbage.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("5"); d != 5*time.Second {
		t.Errorf("delta-seconds: got %v", d)
	}
	if d := parseRetryAfter("0"); d != 0 {
		t.Errorf("zero delta: got %v", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("negative delta: got %v", d)
	}
	// Deltas past what a time.Duration holds: multiplied into one they
	// wrap to about 59 years, to 290 ms and to a negative wait.
	for _, h := range []string{"9999999999999", "18446744074", "9223372037"} {
		if d := parseRetryAfter(h); d != 0 {
			t.Errorf("delta %s overflows a Duration: got %v", h, d)
		}
	}
	if d := parseRetryAfter("9223372036"); d != 9223372036*time.Second {
		t.Errorf("largest delta a Duration holds: got %v", d)
	}
	future := time.Now().UTC().Add(3 * time.Second).Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 3*time.Second {
		t.Errorf("HTTP-date 3s ahead: got %v", d)
	}
	past := time.Now().UTC().Add(-3 * time.Second).Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("HTTP-date in the past: got %v", d)
	}
	if d := parseRetryAfter("half past never"); d != 0 {
		t.Errorf("garbage: got %v", d)
	}
}

// TestCacheEvictionMetric: overflowing a 1-slot cache must tick
// pedd_cache_evictions_total in the scrape.
func TestCacheEvictionMetric(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 1})
	_, r1 := mustOpen(t, m, "direct")
	_, r2 := mustOpen(t, m, "onedim") // evicts direct's artifacts
	m.Close(r1.ID)
	m.Close(r2.ID)
	vals := promValues(t, scrape(t, m.Metrics()))
	if got := vals["pedd_cache_evictions_total"]; got < 1 {
		t.Errorf("pedd_cache_evictions_total = %v, want >= 1", got)
	}
}

// TestDurabilityMetrics drives a journaled session through appends,
// fsyncs, a snapshot compaction, a crash-style restart, and a torn
// tail, then asserts every durability series moved and stays
// histogram-consistent. An open alone (and the cursor move after it)
// writes nothing — asserted first — so the counts below come from the
// mutations: the first one's append carries the whole birth.
func TestDurabilityMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheSize: 8, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: 2}
	m1 := NewManager(cfg)
	ss, resp := mustOpen(t, m1, "direct")
	mustCmd(t, ss, "loop 1")
	vals := promValues(t, scrape(t, m1.Metrics()))
	if a, b := vals["pedd_journal_append_seconds_count"], vals["pedd_journal_bytes_total"]; a != 0 || b != 0 {
		t.Errorf("an unmutated session journaled: %v appends, %v bytes", a, b)
	}
	mustCmd(t, ss, "apply parallelize 1") // birth: open + select + cmd in one append
	mustCmd(t, ss, "loop 2")              // journaled now; second counted mutation → compaction
	mustCmd(t, ss, "apply parallelize 2")
	vals = promValues(t, scrape(t, m1.Metrics()))
	atLeast := func(series string, min float64) {
		t.Helper()
		if vals[series] < min {
			t.Errorf("%s = %v, want >= %v", series, vals[series], min)
		}
	}
	atLeast("pedd_journal_append_seconds_count", 3) // birth + 2 more
	atLeast("pedd_journal_fsync_seconds_count", 3)  // fsync always
	atLeast("pedd_journal_bytes_total", 64)
	atLeast("pedd_journal_snapshots_total", 1) // SnapshotEvery: 2
	checkHistogramInvariants(t, scrape(t, m1.Metrics()))
	m1.Shutdown()

	// Tear the tail, then recover on a fresh manager (fresh registry):
	// both the recovery and the truncation must count.
	wal := walPath(dir, resp.ID)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newTestManager(t, cfg)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	vals = promValues(t, scrape(t, m2.Metrics()))
	atLeast("pedd_recoveries_total", 1)
	atLeast("pedd_recoveries_truncated_total", 1)
	if got := vals["pedd_recoveries_quarantined_total"]; got != 0 {
		t.Errorf("pedd_recoveries_quarantined_total = %v, want 0", got)
	}
}
