package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Hostile programs: an infinite loop, an infinite PRINT, and one the
// code generator declines (non-constant exponent).
const (
	loopSource = `
      program p
      integer i
      i = 0
   10 i = i + 1
      goto 10
      end
`
	bombSource = `
      program p
   10 print *, 123456789
      goto 10
      end
`
	powSource = `
      program p
      integer i, j, k
      i = 2
      j = 3
      k = i ** j
      print *, k
      end
`
	tameSource = `
      program p
      integer i, n
      n = 0
      do 10 i = 1, 100
        n = n + i
   10 continue
      print *, n
      end
`
)

// TestRunHostileWorkloads drives the daemon with programs built to
// take it down — an infinite loop and an output bomb — and asserts
// both fail with typed 422s while a healthy session on the same
// daemon keeps producing byte-identical output.
func TestRunHostileWorkloads(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, RunOutputBytes: 8 << 10})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	healthy, err := c.Open(bg, OpenRequest{Path: "tame.f", Source: tameSource})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Run(bg, healthy.ID, RunRequest{})
	if err != nil {
		t.Fatalf("healthy baseline run: %v", err)
	}
	if !strings.Contains(base.Output, "5050") {
		t.Fatalf("baseline output = %q", base.Output)
	}

	loop, err := c.Open(bg, OpenRequest{Path: "loop.f", Source: loopSource})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(bg, loop.ID, RunRequest{TimeoutMs: 300})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("infinite loop: want 422, got %v", err)
	}
	if !strings.Contains(apiErr.Error(), "killed at deadline") {
		t.Fatalf("infinite loop error %q does not name the deadline kill", apiErr)
	}

	bomb, err := c.Open(bg, OpenRequest{Path: "bomb.f", Source: bombSource})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(bg, bomb.ID, RunRequest{TimeoutMs: 30_000})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("output bomb: want 422, got %v", err)
	}
	if !strings.Contains(apiErr.Error(), "output truncated after") {
		t.Fatalf("output bomb error %q does not name the truncation", apiErr)
	}

	// The daemon survived both: the healthy session's rerun is
	// byte-identical to its pre-hostility baseline.
	again, err := c.Run(bg, healthy.ID, RunRequest{})
	if err != nil {
		t.Fatalf("healthy run after hostile workloads: %v", err)
	}
	if again.Output != base.Output {
		t.Fatalf("healthy output drifted after hostile runs:\nbefore: %q\nafter:  %q",
			base.Output, again.Output)
	}
}

// TestRunHostilePower: an INTEGER power whose exponent would have been
// a trip count of 3·10¹¹ — no statement counted, no cancellation point
// inside — used to outlive the governor's deadline with the session's
// actor and the daemon's only execution slot wedged behind it. The run
// now ends at once, with the wrapped product, and frees the slot for
// the next one.
func TestRunHostilePower(t *testing.T) {
	m := newTestManager(t, Config{MaxRuns: 1})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	for _, src := range []string{
		"      program p\n      integer i\n      i = 3**300000000000\n      print *, i\n      end\n",
		"      program p\n      integer i, j\n      j = 300000000000\n      i = 3**j\n      print *, i\n      end\n",
	} {
		open, err := c.Open(bg, OpenRequest{Path: "power.f", Source: src})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run(bg, open.ID, RunRequest{TimeoutMs: 2000})
		if err != nil {
			t.Fatalf("power run: %v", err)
		}
		if strings.TrimSpace(res.Output) != "5459867978126286849" {
			t.Errorf("output = %q", res.Output)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("power run took %v", d)
		}
	}
	release, err := m.gov.Acquire()
	if err != nil {
		t.Fatalf("execution slot still held after the runs: %v", err)
	}
	release()
}

// TestRunSaturationReturns429 holds the daemon's only execution slot
// and asserts the next run is rejected with 429 + Retry-After instead
// of queueing unbounded work.
func TestRunSaturationReturns429(t *testing.T) {
	m := newTestManager(t, Config{MaxRuns: 1})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	open, err := c.Open(bg, OpenRequest{Path: "tame.f", Source: tameSource})
	if err != nil {
		t.Fatal(err)
	}
	release, err := m.gov.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions/"+open.ID+"/run", "application/json",
		strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	release()
	if _, err := c.Run(bg, open.ID, RunRequest{}); err != nil {
		t.Fatalf("run after the slot freed: %v", err)
	}
}

// TestRunFallbackEndpoint: a compile run of a program the generator
// declines degrades to the interpreter when the request opts in, with
// the reason in the response.
func TestRunFallbackEndpoint(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	open, err := c.Open(bg, OpenRequest{Path: "pow.f", Source: powSource})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(bg, open.ID, RunRequest{Backend: "compile", Fallback: true})
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if res.Backend != "interp" {
		t.Fatalf("backend = %q, want interp after fallback", res.Backend)
	}
	if !strings.Contains(res.Fallback, "exponent") {
		t.Fatalf("fallback reason = %q, want the decline reason", res.Fallback)
	}
	if !strings.Contains(res.Output, "8") {
		t.Fatalf("fallback output = %q", res.Output)
	}

	// Without the opt-in the decline is the caller's problem.
	if _, err := c.Run(bg, open.ID, RunRequest{Backend: "compile"}); err == nil {
		t.Fatal("compile decline without fallback must fail")
	}
}

// TestExecMetricsExposed runs healthy, killed, rejected, and
// fallback executions and asserts every pedd_exec_*/pedd_build_*
// family reaches the scrape with the expected samples.
func TestExecMetricsExposed(t *testing.T) {
	met := NewMetrics()
	m := newTestManager(t, Config{Metrics: met, MaxRuns: 1})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	open, err := c.Open(bg, OpenRequest{Path: "tame.f", Source: tameSource})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(bg, open.ID, RunRequest{}); err != nil {
		t.Fatal(err)
	}

	loop, err := c.Open(bg, OpenRequest{Path: "loop.f", Source: loopSource})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(bg, loop.ID, RunRequest{TimeoutMs: 200}); err == nil {
		t.Fatal("infinite loop run succeeded")
	}

	pow, err := c.Open(bg, OpenRequest{Path: "pow.f", Source: powSource})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(bg, pow.ID, RunRequest{Backend: "compile", Fallback: true}); err != nil {
		t.Fatal(err)
	}

	release, err := m.gov.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(bg, open.ID, RunRequest{}); err == nil {
		t.Fatal("saturated run succeeded")
	}
	release()

	body := scrape(t, met)
	for _, family := range []string{
		"pedd_exec_runs_total",
		"pedd_exec_failures_total",
		"pedd_exec_run_seconds",
		"pedd_exec_timeouts_total",
		"pedd_exec_kills_total",
		"pedd_exec_fallbacks_total",
		"pedd_exec_rejected_total",
		"pedd_exec_inflight",
		"pedd_build_total",
		"pedd_build_failures_total",
		"pedd_build_seconds",
		"pedd_build_cache_hits_total",
		"pedd_build_dedup_total",
		"pedd_build_verify_failures_total",
		"pedd_build_janitor_evictions_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	for _, sample := range []string{
		`pedd_exec_runs_total{backend="interp"}`,
		`pedd_exec_timeouts_total{backend="interp"}`,
		`pedd_exec_kills_total{reason="deadline"}`,
	} {
		if !strings.Contains(body, sample) {
			t.Errorf("scrape missing sample %s", sample)
		}
	}
	if !strings.Contains(body, "pedd_exec_fallbacks_total 1") {
		t.Errorf("fallback counter not incremented; scrape:\n%s", grepMetric(body, "pedd_exec_fallbacks_total"))
	}
	// The client retries 429s, so each rejected run counts at least once.
	if grepMetric(body, "pedd_exec_rejected_total 0") != "" ||
		grepMetric(body, "pedd_exec_rejected_total ") == "" {
		t.Errorf("rejected counter not incremented; scrape:\n%s", grepMetric(body, "pedd_exec_rejected_total"))
	}
}

// grepMetric pulls one family's lines out of a scrape for error text.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRunTimeoutConfigDefault: the daemon-wide -runtimeout default
// applies when the request carries no timeout of its own.
func TestRunTimeoutConfigDefault(t *testing.T) {
	m := newTestManager(t, Config{RunTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	open, err := c.Open(bg, OpenRequest{Path: "loop.f", Source: loopSource})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Run(bg, open.ID, RunRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 from the daemon default timeout, got %v", err)
	}
	if !strings.Contains(apiErr.Error(), "killed at deadline") {
		t.Fatalf("error %q does not name the deadline kill", apiErr)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("run took %s; the 200ms daemon default did not apply", wall)
	}
}
