package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/faultpoint"
	"parascope/internal/planner"
)

func mustPlan(t *testing.T, ss *Session, req PlanRequest) PlanResponse {
	t.Helper()
	resp, err := ss.Plan(bg, req)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return resp
}

// TestPlanRequestBudget: a request's timeout_ms is the search budget,
// 0 or below leaves the planner's default, and one too large for a
// Duration is the longest budget rather than a wrapped-around one.
func TestPlanRequestBudget(t *testing.T) {
	for ms, want := range map[int]time.Duration{
		0:              0,
		-1:             0,
		250:            250 * time.Millisecond,
		9223372036855:  math.MaxInt64,
		18446744073710: math.MaxInt64,
	} {
		if got := (PlanRequest{TimeoutMs: ms}).options().Timeout; got != want {
			t.Errorf("timeout_ms %d: budget %v, want %v", ms, got, want)
		}
	}
}

// TestPlanVerbAndApplyPlanRoundTrip drives the whole feature through
// the line protocol: plan a workload session, require at least two
// ranked candidates, accept the top plan, and require the session's
// source to land exactly on the plan's final hash.
func TestPlanVerbAndApplyPlanRoundTrip(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "spec77")
	before := mustCmd(t, ss, "save")

	out := mustCmd(t, ss, "plan")
	if !strings.Contains(out, "accept a plan with: apply-plan") {
		t.Fatalf("plan verb output:\n%s", out)
	}
	resp, ok := ss.PlanStatus()
	if !ok || resp.Status != "done" {
		t.Fatalf("plan status after sync plan: %+v (ok=%v)", resp, ok)
	}
	if len(resp.Plans) < 2 {
		t.Fatalf("want >= 2 ranked plans, got %d", len(resp.Plans))
	}
	for _, p := range resp.Plans {
		if p.EstSpeedup <= 1 {
			t.Fatalf("plan %s estimated speedup %f, want > 1", p.ID, p.EstSpeedup)
		}
	}
	// Planning must not have touched the session.
	if after := mustCmd(t, ss, "save"); after != before {
		t.Fatal("plan (a read) mutated the parent session")
	}

	out = mustCmd(t, ss, "apply-plan 1")
	if !strings.Contains(out, "applied plan "+resp.Plans[0].ID) {
		t.Fatalf("apply-plan output:\n%s", out)
	}
	got := mustCmd(t, ss, "save")
	if got == before {
		t.Fatal("apply-plan changed nothing")
	}
	steps := resp.Plans[0].Steps
	if h := planner.SrcHash(got); h != steps[len(steps)-1].Hash {
		t.Fatalf("applied source hash %s != plan final step hash %s", h, steps[len(steps)-1].Hash)
	}
	// The steps were journaled as ordinary commands: history shows them.
	hist := mustCmd(t, ss, "history")
	if !strings.Contains(hist, "parallelize") {
		t.Fatalf("history after apply-plan:\n%s", hist)
	}
}

// TestPlanHTTPEndpointsAndCache exercises the typed endpoints over
// real HTTP: POST plan (200), identical re-plan is a cache hit, GET
// poll works, apply-plan applies.
func TestPlanHTTPEndpointsAndCache(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	post := func(path string, body any, want int) []byte {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d (%s)", path, resp.StatusCode, want, buf.String())
		}
		return buf.Bytes()
	}

	var open OpenResponse
	if err := json.Unmarshal(post("/v1/sessions", OpenRequest{Workload: "direct"}, http.StatusCreated), &open); err != nil {
		t.Fatal(err)
	}

	var p1 PlanResponse
	if err := json.Unmarshal(post("/v1/sessions/"+open.ID+"/plan", PlanRequest{}, http.StatusOK), &p1); err != nil {
		t.Fatal(err)
	}
	if p1.Status != "done" || len(p1.Plans) == 0 || p1.Cached {
		t.Fatalf("first plan: %+v", p1)
	}
	// Wire form must not leak world sources (json:"-").
	if raw := post("/v1/sessions/"+open.ID+"/plan", PlanRequest{}, http.StatusOK); bytes.Contains(raw, []byte(`"source"`)) {
		t.Fatal("plan response serializes world sources")
	}

	var p2 PlanResponse
	if err := json.Unmarshal(post("/v1/sessions/"+open.ID+"/plan", PlanRequest{}, http.StatusOK), &p2); err != nil {
		t.Fatal(err)
	}
	if !p2.Cached {
		t.Fatal("identical re-plan on identical source should be a cache hit")
	}

	get, err := http.Get(ts.URL + "/v1/sessions/" + open.ID + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET plan = %d", get.StatusCode)
	}

	var ap ApplyPlanResponse
	if err := json.Unmarshal(post("/v1/sessions/"+open.ID+"/apply-plan", ApplyPlanRequest{Index: 1}, http.StatusOK), &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Plan != p1.Plans[0].ID || ap.Applied != len(p1.Plans[0].Steps) {
		t.Fatalf("apply-plan response: %+v", ap)
	}
	if want := p1.Plans[0].Steps[len(p1.Plans[0].Steps)-1].Hash; ap.Hash != want {
		t.Fatalf("apply hash %s, want final step hash %s", ap.Hash, want)
	}
}

// TestPlanAsync202AndPoll: an async plan returns 202 immediately and
// the result becomes visible via GET.
func TestPlanAsync202AndPoll(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	ss, open := mustOpen(t, m, "direct")

	b, _ := json.Marshal(PlanRequest{Async: true})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+open.ID+"/plan", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var running PlanResponse
	json.NewDecoder(resp.Body).Decode(&running)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || running.Status != "running" {
		t.Fatalf("async plan: %d %+v", resp.StatusCode, running)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		got, ok := ss.PlanStatus()
		if ok && got.Status == "done" {
			if len(got.Plans) == 0 {
				t.Fatalf("async plan finished with no plans: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async plan never finished: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestApplyPlanStaleConflict: mutating the session between plan and
// apply must 409, and the failed apply must not modify the source.
func TestApplyPlanStaleConflict(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "direct")
	mustPlan(t, ss, PlanRequest{})

	mustCmd(t, ss, "apply parallelize 1") // the session moves on
	before := mustCmd(t, ss, "save")
	_, err := ss.ApplyPlan(bg, ApplyPlanRequest{Index: 1})
	if !errors.Is(err, ErrPlanConflict) {
		t.Fatalf("apply of stale plan: %v, want ErrPlanConflict", err)
	}
	if after := mustCmd(t, ss, "save"); after != before {
		t.Fatal("rejected plan mutated the session")
	}

	// And over HTTP the sentinel maps to 409.
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	b, _ := json.Marshal(ApplyPlanRequest{Index: 1})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+ss.ID+"/apply-plan", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale apply-plan over HTTP = %d, want 409", resp.StatusCode)
	}
}

// TestPlanAdmissionControl: one search per session (409) and
// PlanWorkers searches per daemon (429), both while a slow search
// holds its slot.
func TestPlanAdmissionControl(t *testing.T) {
	defer faultpoint.Reset()
	m := newTestManager(t, Config{CacheSize: 8, PlanWorkers: 1})
	s1, _ := mustOpen(t, m, "direct")
	s2, _ := mustOpen(t, m, "onedim")

	disarm := faultpoint.Arm(faultpoint.PlanFork, faultpoint.Fault{Delay: 150 * time.Millisecond})
	defer disarm()

	if resp, err := s1.Plan(bg, PlanRequest{Async: true}); err != nil || resp.Status != "running" {
		t.Fatalf("async plan: %+v, %v", resp, err)
	}
	if _, err := s1.Plan(bg, PlanRequest{}); !errors.Is(err, ErrPlanConflict) {
		t.Fatalf("second plan on the same session: %v, want ErrPlanConflict", err)
	}
	if _, err := s2.Plan(bg, PlanRequest{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("plan past daemon capacity: %v, want ErrQueueFull", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, ok := s1.PlanStatus(); ok && resp.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow plan never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlanChaosParentUnharmed arms a panic that kills every
// speculative world: the search must complete empty, and the parent
// session must keep serving — not quarantined, source untouched.
func TestPlanChaosParentUnharmed(t *testing.T) {
	defer faultpoint.Reset()
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "direct")
	before := mustCmd(t, ss, "save")

	disarm := faultpoint.Arm(faultpoint.PlanScore, faultpoint.Fault{Panic: true})
	resp := mustPlan(t, ss, PlanRequest{})
	disarm()

	if resp.Status != "done" || len(resp.Plans) != 0 {
		t.Fatalf("all-worlds-panic search: %+v", resp)
	}
	if resp.WorldsDiscarded == 0 {
		t.Fatal("no worlds discarded")
	}
	if ss.Info(bg).State == "failed" {
		t.Fatal("world panics quarantined the parent session")
	}
	if after := mustCmd(t, ss, "save"); after != before {
		t.Fatal("world panics corrupted the parent source")
	}
	if got := mustCmd(t, ss, "loops"); got == "" {
		t.Fatal("parent stopped serving reads")
	}
	// Next search (faults disarmed) recovers fully.
	if resp := mustPlan(t, ss, PlanRequest{}); len(resp.Plans) == 0 {
		t.Fatalf("post-chaos search found nothing: %+v", resp)
	}
}

// TestPlanFaultOnApply: a fault armed at the apply boundary rejects
// the acceptance before any step runs.
func TestPlanFaultOnApply(t *testing.T) {
	defer faultpoint.Reset()
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "direct")
	mustPlan(t, ss, PlanRequest{})
	before := mustCmd(t, ss, "save")

	injected := errors.New("injected apply fault")
	disarm := faultpoint.Arm(faultpoint.PlanApply, faultpoint.Fault{Err: injected, Times: 1})
	defer disarm()
	if _, err := ss.ApplyPlan(bg, ApplyPlanRequest{Index: 1}); !errors.Is(err, injected) {
		t.Fatalf("apply under fault: %v", err)
	}
	if after := mustCmd(t, ss, "save"); after != before {
		t.Fatal("faulted apply mutated the session")
	}
}

// TestPlanSearchWhileParentServes is the concurrency satellite: N
// worlds search while the parent session keeps answering reads and
// even a mutation, all under -race. The plan (made stale by the
// mutation) is then rejected with the parent's source byte-identical
// across the rejection.
func TestPlanSearchWhileParentServes(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "spec77")

	if resp, err := ss.Plan(bg, PlanRequest{Async: true}); err != nil || resp.Status != "running" {
		t.Fatalf("async plan: %+v, %v", resp, err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mustCmd(t, ss, "loops")
				mustCmd(t, ss, "perf")
				ss.Info(bg)
			}
		}()
	}
	// A mutation lands mid-search: worlds fork from an immutable
	// snapshot, so this is legal — it just makes the plans stale.
	mustCmd(t, ss, "loop 1")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if resp, ok := ss.PlanStatus(); ok && resp.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	resp, ok := ss.PlanStatus()
	if !ok || resp.Status != "done" {
		t.Fatalf("plan status: %+v", resp)
	}
	mustCmd(t, ss, "apply parallelize 1") // move the source past the plan base
	before := mustCmd(t, ss, "save")
	if _, err := ss.ApplyPlan(bg, ApplyPlanRequest{Index: 1}); !errors.Is(err, ErrPlanConflict) {
		t.Fatalf("stale apply: %v, want ErrPlanConflict", err)
	}
	if after := mustCmd(t, ss, "save"); after != before {
		t.Fatal("rejected plan changed the parent source")
	}
}

// TestApplyPlanJournalReplay: an accepted plan must survive a restart
// byte-identically — its steps were journaled like hand-typed
// commands, so recovery replays them with zero planner state.
func TestApplyPlanJournalReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheSize: 8, DataDir: dir, Fsync: FsyncAlways}
	m := NewManager(cfg)
	ss, open := mustOpen(t, m, "direct")
	mustCmd(t, ss, "plan")
	out := mustCmd(t, ss, "apply-plan 1")
	if !strings.Contains(out, "applied plan") {
		t.Fatalf("apply-plan: %s", out)
	}
	want := mustCmd(t, ss, "save")
	m.Shutdown()

	m2 := NewManager(cfg)
	defer m2.Shutdown()
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	ss2 := m2.Get(open.ID)
	if ss2 == nil {
		t.Fatalf("session %s not recovered", open.ID)
	}
	if got := mustCmd(t, ss2, "save"); got != want {
		t.Fatalf("recovered source differs from pre-crash source:\n%s", got)
	}
}

// TestPlannerMetrics asserts the planner metric families appear in a
// scrape with plausible values and without any session-scoped labels.
func TestPlannerMetrics(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "direct")
	mustPlan(t, ss, PlanRequest{})
	if _, err := ss.ApplyPlan(bg, ApplyPlanRequest{Index: 1}); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, m.Metrics())
	vals := promValues(t, body)
	if vals["pedd_planner_worlds_forked_total"] <= 0 {
		t.Error("pedd_planner_worlds_forked_total not incremented")
	}
	if vals["pedd_planner_worlds_scored_total"] <= 0 {
		t.Error("pedd_planner_worlds_scored_total not incremented")
	}
	if vals["pedd_planner_worlds_accepted_total"] != 1 {
		t.Errorf("pedd_planner_worlds_accepted_total = %f, want 1",
			vals["pedd_planner_worlds_accepted_total"])
	}
	if vals["pedd_planner_worlds_live"] != 0 {
		t.Errorf("pedd_planner_worlds_live = %f after search finished",
			vals["pedd_planner_worlds_live"])
	}
	if vals["pedd_planner_search_seconds_count"] != 1 {
		t.Errorf("pedd_planner_search_seconds_count = %f, want 1",
			vals["pedd_planner_search_seconds_count"])
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "pedd_planner") && strings.Contains(line, ss.ID) {
			t.Errorf("planner metric labeled by session ID: %s", line)
		}
		if strings.HasPrefix(line, "pedd_planner_worlds_forked_total") && strings.Contains(line, "{") {
			t.Errorf("planner counter has labels: %s", line)
		}
	}
}

// TestPlanSnapshotIgnoresUndoDepth: a plan request reads the source and
// the cursor unit and nothing else, so what it allocates does not grow
// with the undo history. A journal snapshot record would render every
// undo entry as a whole program.
func TestPlanSnapshotIgnoresUndoDepth(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	w := largestWorkload(t)
	ss, _ := mustOpen(t, m, w.Name)
	shadow, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	stmt, text := firstAssign(t, shadow)
	edit := func(i int) {
		t.Helper()
		if err := ss.Edit(bg, EditRequest{Stmt: stmt, Text: fmt.Sprintf("      %s + %d.0", text, i)}); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	// The fewest allocations over a few tries: the counter is
	// process-wide, so a try can only over-count.
	allocs := func() float64 {
		best := math.Inf(1)
		for try := 0; try < 5; try++ {
			best = math.Min(best, testing.AllocsPerRun(20, func() {
				if _, err := ss.planSnapshot(bg); err != nil {
					t.Error(err)
				}
			}))
		}
		return best
	}
	edit(0) // materialises the session
	if err := ss.Undo(bg); err != nil {
		t.Fatal(err)
	}
	if info := ss.Info(bg); !info.Live {
		t.Fatal("session is not live; the test is vacuous")
	}
	shallow := allocs()
	for i := 1; i <= 16; i++ {
		edit(i)
	}
	if deep := allocs(); deep > shallow {
		t.Errorf("planSnapshot allocates %v times at undo depth 0 and %v at depth 16; want no growth", shallow, deep)
	}
}
