package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parascope/internal/faultpoint"
	"parascope/internal/workloads"
)

// boomSource has two program units so materializing it drives the
// parallel analysis worker pool — the faultpoint.Analyze site fires
// inside a pool worker, which is the hardest place to contain a panic.
const boomSource = `
      program boom
      integer i
      real a(100)
      do i = 1, 100
         a(i) = real(i)
      enddo
      call scale(a, 100)
      print *, a(1)
      end
      subroutine scale(a, n)
      integer n, i
      real a(n)
      do i = 1, n
         a(i) = a(i)*2.0
      enddo
      end
`

// hangSource has one trivially parallel loop so `apply parallelize 1`
// reaches core.Session.Transform — and its faultpoint — cleanly.
const hangSource = `
      program hang
      integer i
      real a(100)
      do i = 1, 100
         a(i) = real(i)*2.0
      enddo
      print *, a(1)
      end
`

// chaosScript is the read-only probe run in every healthy session.
var chaosScript = []string{"loops", "loop 1", "deps", "vars", "perf", "save"}

// runScript executes chaosScript over HTTP and returns the
// concatenated transcript (outputs and command-level errors).
func runScript(c *Client, id string) (string, error) {
	var b strings.Builder
	for _, line := range chaosScript {
		resp, err := c.Cmd(context.Background(), id, line)
		if err != nil {
			return "", fmt.Errorf("cmd %q: %w", line, err)
		}
		b.WriteString(resp.Output)
		if resp.Err != "" {
			fmt.Fprintf(&b, "error: %s\n", resp.Err)
		}
	}
	return b.String(), nil
}

// openHealthy opens 16 sessions — each of 8 workloads twice, so half
// the fleet is live and half artifact-backed — in a deterministic
// order, and returns their IDs in open order.
func openHealthy(t *testing.T, c *Client) []string {
	t.Helper()
	names := make([]string, 0, 8)
	for _, w := range workloads.All() {
		names = append(names, w.Name)
		if len(names) == 8 {
			break
		}
	}
	if len(names) < 8 {
		t.Fatalf("only %d workloads available", len(names))
	}
	ids := make([]string, 0, 16)
	for round := 0; round < 2; round++ {
		for _, name := range names {
			resp, err := c.Open(context.Background(), OpenRequest{Workload: name})
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			if round == 1 && !resp.Cached {
				t.Fatalf("second open of %s missed the cache", name)
			}
			ids = append(ids, resp.ID)
		}
	}
	return ids
}

// TestChaosPanicAndHangIsolation is the headline resilience test: with
// an analysis panic and a transformation hang injected, 16 healthy
// concurrent sessions keep answering byte-identically to an
// uninjected run, the panicking session is quarantined with a
// diagnostic (500 + GET status showing state "failed" and a captured
// stack), and the hung session's request deadlines into a 504 — all
// on one daemon, all while -race watches.
func TestChaosPanicAndHangIsolation(t *testing.T) {
	cfg := Config{CacheSize: 32, Workers: 2}

	// Baseline: the same fleet with nothing injected.
	baseMgr := newTestManager(t, cfg)
	baseSrv := httptest.NewServer(New(baseMgr))
	defer baseSrv.Close()
	baseClient := NewClient(baseSrv.URL)
	baseIDs := openHealthy(t, baseClient)
	baseline := make([]string, len(baseIDs))
	for i, id := range baseIDs {
		out, err := runScript(baseClient, id)
		if err != nil {
			t.Fatalf("baseline session %s: %v", id, err)
		}
		baseline[i] = out
	}

	// Chaos fleet: same config, same open order, plus three victims.
	m := newTestManager(t, cfg)
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	client := NewClient(ts.URL)
	ids := openHealthy(t, client)

	// boom.f is opened twice: the second session is artifact-backed,
	// so its first mutating command materializes — reparse, reanalyze,
	// worker pool — and walks straight into the armed panic.
	if _, err := client.Open(context.Background(), OpenRequest{Path: "boom.f", Source: boomSource}); err != nil {
		t.Fatalf("open boom.f: %v", err)
	}
	boom, err := client.Open(context.Background(), OpenRequest{Path: "boom.f", Source: boomSource})
	if err != nil {
		t.Fatalf("reopen boom.f: %v", err)
	}
	if !boom.Cached {
		t.Fatal("second boom.f open missed the cache; panic path needs an artifact-backed session")
	}
	hang, err := client.Open(context.Background(), OpenRequest{Path: "hang.f", Source: hangSource})
	if err != nil {
		t.Fatalf("open hang.f: %v", err)
	}

	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.Analyze, faultpoint.Fault{Match: "boom.f", Panic: true})
	// The delay must comfortably outlive the 200ms request deadline but
	// stay short enough that the test can wait for the actor to wake
	// (see the sentinel below) without dragging the suite.
	faultpoint.Arm(faultpoint.Transform, faultpoint.Fault{Match: "hang.f", Delay: 600 * time.Millisecond})

	// The hung request goes through a second handler over the same
	// manager with a tight deadline, so only it races the clock.
	hangSrv := httptest.NewServer(NewWith(m, Options{ReqTimeout: 200 * time.Millisecond}))
	defer hangSrv.Close()
	hangClient := NewClient(hangSrv.URL)

	var wg sync.WaitGroup
	transcripts := make([]string, len(ids))
	scriptErrs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			transcripts[i], scriptErrs[i] = runScript(client, id)
		}(i, id)
	}

	var panicErr, hangErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		panicErr = client.Classify(context.Background(), boom.ID,
			ClassifyRequest{Var: "a", Class: "private"})
	}()
	go func() {
		defer wg.Done()
		_, hangErr = hangClient.Cmd(context.Background(), hang.ID, "apply parallelize 1")
	}()
	wg.Wait()

	// The panicking session answered 500 with a diagnostic...
	var apiErr *APIError
	if !errors.As(panicErr, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("materializing into a panic: got %v, want APIError 500", panicErr)
	}
	if !strings.Contains(apiErr.Message, "session failed") {
		t.Errorf("500 body missing diagnostic: %q", apiErr.Message)
	}
	if n := faultpoint.Fired(faultpoint.Analyze); n < 1 {
		t.Errorf("analyze faultpoint fired %d times, want >= 1", n)
	}
	// ...is observable as failed with a captured worker stack...
	st, err := client.Status(context.Background(), boom.ID)
	if err != nil {
		t.Fatalf("status of failed session: %v", err)
	}
	if st.State != "failed" {
		t.Errorf("failed session state %q, want failed", st.State)
	}
	if st.Failure == nil || !strings.Contains(st.Failure.Stack, "worker stack") {
		t.Errorf("failure diagnostic missing worker stack: %+v", st.Failure)
	}
	// ...and stays quarantined for later requests.
	if _, err := client.Cmd(context.Background(), boom.ID, "loops"); err == nil {
		t.Error("command on quarantined session succeeded")
	} else if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("command on quarantined session: got %v, want 500", err)
	}

	// The hung session's request hit the deadline, not the client.
	if !errors.As(hangErr, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("hung transform: got %v, want APIError 504", hangErr)
	}
	// Wait for the abandoned transform to actually wake and finish
	// while -race is still watching: its post-deadline writes are the
	// exact access the zero-value error paths exist to keep unread. A
	// sentinel through the default (30s) server queues behind the
	// sleeping command, so its success proves the actor drained past it
	// and the session recovered rather than staying wedged.
	if _, err := client.Cmd(context.Background(), hang.ID, "loops"); err != nil {
		t.Errorf("hang session after its command woke: %v", err)
	}

	// And the 16 healthy sessions never noticed: byte-identical.
	for i := range ids {
		if scriptErrs[i] != nil {
			t.Errorf("healthy session %s failed during chaos: %v", ids[i], scriptErrs[i])
			continue
		}
		if transcripts[i] != baseline[i] {
			t.Errorf("healthy session %s diverged from baseline under chaos:\n--- baseline ---\n%s\n--- chaos ---\n%s",
				ids[i], baseline[i], transcripts[i])
		}
	}
	for _, id := range ids {
		st, err := client.Status(context.Background(), id)
		if err != nil {
			t.Errorf("status %s: %v", id, err)
			continue
		}
		if st.State != "active" {
			t.Errorf("healthy session %s state %q after chaos, want active", id, st.State)
		}
	}
}

// TestDeadlineMidExecution pins the response-confinement contract: a
// command whose deadline expires while it is executing must return
// zero values — the captured response belongs to the actor, which
// writes it when the command eventually finishes, and any read of it
// on the error path is a data race (this test reads the returned
// values and then forces the actor to wake under -race, so a
// regression to `return resp, err` is flagged deterministically).
func TestDeadlineMidExecution(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "onedim")
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.Transform, faultpoint.Fault{Match: "onedim.f", Delay: 400 * time.Millisecond})

	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	resp, err := ss.Cmd(ctx, "apply parallelize 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-execution deadline: got %v, want context.DeadlineExceeded", err)
	}
	if resp.Output != "" || resp.Err != "" {
		t.Fatalf("timed-out command leaked a partial response: %+v", resp)
	}
	// Drain past the still-sleeping command so its post-deadline writes
	// happen while -race is watching, and prove the session recovered.
	if _, err := ss.Cmd(bg, "loops"); err != nil {
		t.Fatalf("sentinel after the abandoned command woke: %v", err)
	}
}

// TestAdmissionQueueFull pins the backpressure path: with a depth-1
// queue, one command running and one queued, the next post is refused
// with ErrQueueFull instead of buffering without bound.
func TestAdmissionQueueFull(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, QueueDepth: 1})
	ss, _ := mustOpen(t, m, "onedim")

	started := make(chan struct{})
	block := make(chan struct{})
	errs := make(chan error, 2)
	go func() { errs <- ss.post(bg, func() { close(started); <-block }, false) }()
	<-started // the actor is now busy
	go func() { errs <- ss.post(bg, func() {}, false) }()
	waitFor(t, func() bool { return len(ss.reqCh) == 1 }) // the queue slot is taken

	if _, err := ss.Cmd(bg, "loops"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("post into a full queue: %v, want ErrQueueFull", err)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued command %d: %v", i, err)
		}
	}
	// Capacity recovered once the queue drained.
	if _, err := ss.Cmd(bg, "loops"); err != nil {
		t.Fatalf("command after drain: %v", err)
	}
	if rejected, held := gateReads(m, "queue"); rejected != 1 || held != 0 {
		t.Errorf("queue gate: %d refused, %d held after the drain; want 1 and 0", rejected, held)
	}
}

// TestQueuedCommandAbandonedOnDisconnect: a command still in the queue
// when its client gives up must never execute.
func TestQueuedCommandAbandonedOnDisconnect(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, QueueDepth: 4})
	ss, _ := mustOpen(t, m, "onedim")

	started := make(chan struct{})
	block := make(chan struct{})
	go ss.post(bg, func() { close(started); <-block }, false)
	<-started

	ctx, cancel := context.WithCancel(bg)
	var ran atomic.Bool
	errCh := make(chan error, 1)
	go func() { errCh <- ss.post(ctx, func() { ran.Store(true) }, false) }()
	waitFor(t, func() bool { return len(ss.reqCh) == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned post returned %v, want context.Canceled", err)
	}

	close(block)
	// A sentinel through the actor proves the queue fully drained —
	// past the spot where the abandoned command would have run.
	if err := ss.post(bg, func() {}, false); err != nil {
		t.Fatalf("sentinel: %v", err)
	}
	if ran.Load() {
		t.Fatal("abandoned command executed after its client disconnected")
	}
}

// TestOpenDeadline pins the open-time contract: a hung parse cannot
// wedge the caller past its deadline, cannot leak its reserved
// MaxSessions slot once it returns, and the abandoned analysis still
// salvages its artifacts into the cache.
func TestOpenDeadline(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8, MaxSessions: 1})
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.Parse, faultpoint.Fault{Match: "slowopen.f", Delay: 400 * time.Millisecond, Times: 1})

	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := m.Open(ctx, OpenRequest{Path: "slowopen.f", Source: hangSource})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("open past its deadline: got %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 300*time.Millisecond {
		t.Fatalf("open blocked %v on a hung parse instead of honoring its deadline", waited)
	}

	// The abandoned analysis still owns the only slot...
	if _, _, err := m.Open(bg, OpenRequest{Workload: "onedim"}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("open while an abandoned analysis holds the slot: got %v, want ErrTooManySessions", err)
	}
	// ...until it returns, which releases the reservation.
	waitFor(t, func() bool {
		_, resp, err := m.Open(bg, OpenRequest{Workload: "onedim"})
		if err == nil {
			m.Close(resp.ID)
		}
		return err == nil
	})
	// And the abandoned open was recorded as the source's first: the
	// reopen analyzes again (the Times-bounded fault is spent), caches
	// what it built and opens artifact-backed from it...
	_, resp, err := m.Open(bg, OpenRequest{Path: "slowopen.f", Source: hangSource})
	if err != nil {
		t.Fatalf("reopen after abandoned analysis: %v", err)
	}
	if !resp.Cached {
		t.Error("the open after an abandoned one did not cache its artifacts")
	}
	m.Close(resp.ID)
	// ...so the third open is a hit: no reparse.
	before := m.CacheStats()
	_, resp, err = m.Open(bg, OpenRequest{Path: "slowopen.f", Source: hangSource})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if after := m.CacheStats(); !resp.Cached || after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("third open: cached = %v, cache stats %+v -> %+v, want one hit and no miss", resp.Cached, before, after)
	}
}

// TestJanitorRace hammers Open/Cmd/Sweep/Close concurrently with an
// aggressive TTL: every command must either succeed with real output
// or fail with ErrSessionClosed — never panic, never return garbage.
func TestJanitorRace(t *testing.T) {
	m := newTestManager(t, Config{
		TTL:        5 * time.Millisecond,
		SweepEvery: 2 * time.Millisecond,
		CacheSize:  8,
	})
	deadline := time.Now().Add(300 * time.Millisecond)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ss, resp, err := m.Open(bg, OpenRequest{Workload: "onedim"})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				for k := 0; k < 3; k++ {
					r, err := ss.Cmd(bg, "loops")
					switch {
					case err == nil:
						if r.Output == "" {
							t.Error("live command returned empty output")
						}
					case errors.Is(err, ErrSessionClosed):
						// evicted mid-script: the one acceptable failure
					default:
						t.Errorf("cmd during sweep: %v", err)
					}
					if w == 0 {
						time.Sleep(3 * time.Millisecond) // invite eviction
					}
				}
				if w%2 == 1 {
					m.Close(resp.ID)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			m.Sweep()
		}
	}()
	wg.Wait()
}

// TestClientRetriesBackpressure: the client transparently rides out
// 429 bursts (two of every three requests rejected) and still
// completes an open → command → close conversation; with retries
// disabled it fails fast instead.
func TestClientRetriesBackpressure(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	inner := New(m)
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 != 0 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"busy"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c := NewClient(flaky.URL)
	c.MaxRetries = 5
	open, err := c.Open(bg, OpenRequest{Workload: "onedim"})
	if err != nil {
		t.Fatalf("open through 429 bursts: %v", err)
	}
	resp, err := c.Cmd(bg, open.ID, "loops")
	if err != nil {
		t.Fatalf("cmd through 429 bursts: %v", err)
	}
	if resp.Output == "" {
		t.Fatal("retried command returned no output")
	}
	if err := c.CloseSession(bg, open.ID); err != nil {
		t.Fatalf("close through 429 bursts: %v", err)
	}

	// Retries disabled: a single 429 is a single failure.
	var attempts atomic.Int64
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"busy"}`)
	}))
	defer always429.Close()
	c2 := NewClient(always429.URL)
	c2.MaxRetries = -1
	_, err = c2.Open(bg, OpenRequest{Workload: "onedim"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("no-retry open: %v, want APIError 429", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("no-retry client made %d attempts, want 1", got)
	}
}

// TestClientBackoffPolicy pins the schedule: Retry-After is a floor,
// non-backpressure API errors are terminal, and transport errors only
// retry on idempotent methods.
func TestClientBackoffPolicy(t *testing.T) {
	c := NewClient("http://example.invalid")
	if d := c.backoff(0, 3*time.Second); d < 3*time.Second {
		t.Errorf("backoff ignored Retry-After floor: %v", d)
	}
	if d := c.backoff(20, 0); d > DefaultMaxBackoff {
		t.Errorf("backoff exceeded cap: %v", d)
	}
	if ok, _ := retryable(&APIError{Status: http.StatusUnprocessableEntity}, true); ok {
		t.Error("422 must not be retried")
	}
	if ok, _ := retryable(&APIError{Status: http.StatusServiceUnavailable}, false); !ok {
		t.Error("503 must be retried even on non-idempotent requests")
	}
	if ok, _ := retryable(errors.New("connection reset"), false); ok {
		t.Error("transport error on non-idempotent request must not be retried")
	}
	if ok, _ := retryable(errors.New("connection reset"), true); !ok {
		t.Error("transport error on idempotent request must be retried")
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
