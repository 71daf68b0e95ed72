package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests exercise the durability layer the only way that proves
// it: a real pedd process, a real kill -9, a real restart on the same
// datadir. Everything in-process (internal/server's recovery tests)
// can only simulate the crash; here the kernel delivers it.

// peddClient wraps the HTTP calls the crash tests need.
type peddClient struct {
	t    *testing.T
	addr string
}

func (c *peddClient) post(path, body string) (int, string) {
	c.t.Helper()
	resp, err := http.Post("http://"+c.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func (c *peddClient) get(path string) (int, string) {
	c.t.Helper()
	resp, err := http.Get("http://" + c.addr + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func (c *peddClient) open(workload string) string {
	c.t.Helper()
	code, body := c.post("/v1/sessions", `{"workload":"`+workload+`"}`)
	if code != http.StatusCreated {
		c.t.Fatalf("open: %d (%s)", code, body)
	}
	var got struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.ID == "" {
		c.t.Fatalf("open response: %v (%s)", err, body)
	}
	return got.ID
}

// cmd runs a REPL line and returns the command output. It accepts
// command-level failure (the line is still journaled) but not
// transport failure.
func (c *peddClient) cmd(id, line string) string {
	c.t.Helper()
	code, body := c.post("/v1/sessions/"+id+"/cmd", `{"line":"`+line+`"}`)
	if code != http.StatusOK && code != http.StatusUnprocessableEntity {
		c.t.Fatalf("cmd %q: %d (%s)", line, code, body)
	}
	var got struct {
		Output string `json:"output"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		c.t.Fatalf("cmd %q response: %v (%s)", line, err, body)
	}
	return got.Output
}

// TestCrashRecoveryKillDash9: mutate a session, kill the daemon with
// SIGKILL while one more mutation is in flight, restart on the same
// datadir, and require the same session ID with a byte-identical
// program and identical dependence answers.
func TestCrashRecoveryKillDash9(t *testing.T) {
	dir := t.TempDir()
	inst := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	cl := &peddClient{t: t, addr: inst.addr}

	id := cl.open("direct")
	cl.cmd(id, "loop 1")
	cl.cmd(id, "apply parallelize 1")
	want := cl.cmd(id, "save")
	if !strings.Contains(want, "doall") {
		t.Fatalf("parallelize left no annotation; save output:\n%s", want)
	}
	_, wantDeps := cl.get("/v1/sessions/" + id + "/deps")

	// Fire one more mutation and SIGKILL the daemon while it is (or
	// may be) mid-flight — either outcome is legal, but the journal
	// must never be left in a state that breaks recovery of the
	// acknowledged prefix.
	go func() {
		resp, err := http.Post("http://"+inst.addr+"/v1/sessions/"+id+"/cmd",
			"application/json", strings.NewReader(`{"line":"undo"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := inst.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = inst.cmd.Wait()

	inst2 := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	if out := inst2.output.String(); !strings.Contains(out, "pedd: recovery: recovered 1") {
		t.Fatalf("restart did not report a recovery:\n%s", out)
	}
	cl2 := &peddClient{t: t, addr: inst2.addr}
	code, listing := cl2.get("/v1/sessions")
	if code != http.StatusOK || !strings.Contains(listing, id) {
		t.Fatalf("recovered daemon does not list session %s: %d %s", id, code, listing)
	}

	got := cl2.cmd(id, "save")
	// The racing undo either committed (journaled before the kill) or
	// it didn't; the recovered source must be exactly one of the two
	// acknowledged states, never a hybrid.
	preUndo := want
	postUndo := strings.Replace(want, "c$par doall private(j,i)\n", "", 1)
	if got != preUndo && got != postUndo {
		t.Errorf("recovered source matches neither pre- nor post-undo state:\n%s", got)
	}
	if got == preUndo {
		_, gotDeps := cl2.get("/v1/sessions/" + id + "/deps")
		if gotDeps != wantDeps {
			t.Errorf("recovered deps differ:\nwant %s\ngot  %s", wantDeps, gotDeps)
		}
	}
	// The recovered session is writable.
	cl2.cmd(id, "loop 1")
}

// TestCrashRecoveryRepeatedKills: crash the daemon several times in a
// row on the same datadir; each restart must recover, and the session
// must keep accumulating state across the crashes. The session mutates
// before the first kill — a journal exists from the first mutation on,
// not from the open. The other half of that contract rides along: a
// second session that only browses (opens, moves its cursor, reads) is
// killed with it each round, leaves nothing on disk, and answers 404
// after the restart, where the client reopens it.
func TestCrashRecoveryRepeatedKills(t *testing.T) {
	dir := t.TempDir()
	inst := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	cl := &peddClient{t: t, addr: inst.addr}
	id := cl.open("direct")
	cl.cmd(id, "loop 1")
	var want string
	for round := 0; round < 3; round++ {
		if round < 2 {
			cl.cmd(id, fmt.Sprintf("apply parallelize %d", 1+2*round))
		}
		want = cl.cmd(id, "save")
		if n := strings.Count(want, "doall"); n != min(round+1, 2) {
			t.Fatalf("round %d: %d doall loops in the program, want %d:\n%s", round, n, min(round+1, 2), want)
		}
		browser := cl.open("onedim")
		cl.cmd(browser, "loop 1")
		cl.cmd(browser, "deps")
		if code, body := cl.get("/v1/sessions/" + browser); code != http.StatusOK || !strings.Contains(body, `"journaled":false`) {
			t.Fatalf("round %d: browsing session status: %d %s", round, code, body)
		}
		if err := inst.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = inst.cmd.Wait()
		inst = startPedd(t, false, "-datadir", dir, "-fsync", "always")
		cl = &peddClient{t: t, addr: inst.addr}
		if out := inst.output.String(); !strings.Contains(out, "recovered 1 ") || !strings.Contains(out, "removed 0") {
			t.Fatalf("round %d: restart did not recover exactly the mutated session:\n%s", round, out)
		}
		if got := cl.cmd(id, "save"); got != want {
			t.Fatalf("round %d: source diverged after crash:\nwant %s\ngot  %s", round, want, got)
		}
		if code, body := cl.get("/v1/sessions/" + browser); code != http.StatusNotFound {
			t.Fatalf("round %d: unmutated session after the crash: %d %s, want 404", round, code, body)
		}
	}
}

// TestSIGTERMDrainsAndFlushes: SIGTERM with a mutating request in
// flight must exit 0 (drained, journals flushed), and the next start
// must recover the session including that final mutation.
func TestSIGTERMDrainsAndFlushes(t *testing.T) {
	dir := t.TempDir()
	// -fsync never: only the shutdown-path flush makes this durable,
	// which is exactly what the test pins.
	inst := startPedd(t, false, "-datadir", dir, "-fsync", "never")
	cl := &peddClient{t: t, addr: inst.addr}
	id := cl.open("direct")
	cl.cmd(id, "loop 1")

	inflight := make(chan string, 1)
	go func() {
		resp, err := http.Post("http://"+inst.addr+"/v1/sessions/"+id+"/cmd",
			"application/json", strings.NewReader(`{"line":"apply parallelize 1"}`))
		if err != nil {
			inflight <- "transport error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- resp.Status + " " + string(b)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := inst.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := inst.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM with in-flight mutation exited non-zero: %v\n%s", err, inst.output.String())
	}
	res := <-inflight
	if strings.Contains(res, "transport error") {
		t.Fatalf("in-flight request dropped during drain: %s", res)
	}
	if !strings.HasPrefix(res, "200") {
		t.Fatalf("in-flight mutation not served before drain: %s", res)
	}

	inst2 := startPedd(t, false, "-datadir", dir, "-fsync", "never")
	if out := inst2.output.String(); !strings.Contains(out, "recovered 1 (truncated 0") {
		t.Fatalf("clean shutdown left a journal needing repair:\n%s", out)
	}
	cl2 := &peddClient{t: t, addr: inst2.addr}
	if got := cl2.cmd(id, "save"); !strings.Contains(got, "doall") {
		t.Errorf("drained mutation lost across clean shutdown:\n%s", got)
	}
}

// TestCrashRecoveryMidApplyPlan: SIGKILL the daemon while it is
// applying an accepted speculative plan. Plan steps are journaled one
// by one through the ordinary mutation path, so whatever instant the
// kernel delivers the kill, the recovered source must sit exactly on
// the plan's hash chain: the base state or the state after some
// acknowledged prefix of steps — never a hybrid.
func TestCrashRecoveryMidApplyPlan(t *testing.T) {
	dir := t.TempDir()
	// The armed delay stretches every journal append so the kill lands
	// inside the multi-step apply window rather than after it.
	inst := startPedd(t, false, "-datadir", dir, "-fsync", "always",
		"-faults", "journal-append=delay:20ms")
	cl := &peddClient{t: t, addr: inst.addr}
	id := cl.open("spec77")

	code, body := cl.post("/v1/sessions/"+id+"/plan", `{}`)
	if code != http.StatusOK {
		t.Fatalf("plan: %d (%s)", code, body)
	}
	var plan struct {
		BaseHash string `json:"base_hash"`
		Plans    []struct {
			Steps []struct {
				Line string `json:"line"`
				Hash string `json:"hash"`
			} `json:"steps"`
		} `json:"plans"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatalf("plan response: %v (%s)", err, body)
	}
	if len(plan.Plans) < 2 {
		t.Fatalf("want >= 2 candidate plans, got %d (%s)", len(plan.Plans), body)
	}
	// Every state on the top plan's hash chain is an acceptable place
	// for the crash to land.
	legal := map[string]string{plan.BaseHash: "base"}
	for i, st := range plan.Plans[0].Steps {
		legal[st.Hash] = fmt.Sprintf("after step %d (%s)", i+1, st.Line)
	}

	go func() {
		resp, err := http.Post("http://"+inst.addr+"/v1/sessions/"+id+"/apply-plan",
			"application/json", strings.NewReader(`{"index":1}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// The plan's first step moves the cursor and journals nothing; the
	// first apply writes the journal's birth records in one delayed
	// append. Kill once that write is on disk: a kill before it would
	// leave an empty journal, which recovery rightly removes.
	wal := dir + "/" + id + ".wal"
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if fi, err := os.Stat(wal); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("apply-plan wrote nothing to %s within 10s", wal)
		}
	}
	if err := inst.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = inst.cmd.Wait()

	inst2 := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	if out := inst2.output.String(); !strings.Contains(out, "recovered 1") {
		t.Fatalf("restart did not recover the session:\n%s", out)
	}
	cl2 := &peddClient{t: t, addr: inst2.addr}
	got := cl2.cmd(id, "save")
	sum := sha256.Sum256([]byte(got))
	h := hex.EncodeToString(sum[:])
	if where, ok := legal[h]; !ok {
		t.Errorf("recovered source is off the plan's hash chain (hash %s):\n%s", h, got)
	} else {
		t.Logf("crash landed %s", where)
	}
	// The recovered session keeps serving and mutating.
	cl2.cmd(id, "loop 1")
	if out := cl2.cmd(id, "deps"); out == "" {
		t.Error("recovered session serves no dependence answers")
	}
}

// TestRecoveryQuarantineSurvivesDaemonLifecycle: a corrupt journal on
// disk must not stop the daemon from starting; the bad session is
// quarantined and DELETE-able over the API.
func TestRecoveryQuarantineSurvivesDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	inst := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	cl := &peddClient{t: t, addr: inst.addr}
	id := cl.open("direct")
	cl.cmd(id, "loop 1")
	cl.cmd(id, "apply parallelize 1")
	if err := inst.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	_ = inst.cmd.Wait()

	// Corrupt the journal mid-stream: flip a byte in the first record.
	wal := dir + "/" + id + ".wal"
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	inst2 := startPedd(t, false, "-datadir", dir, "-fsync", "always")
	if out := inst2.output.String(); !strings.Contains(out, "quarantined 1") {
		t.Fatalf("restart did not report the quarantine:\n%s", out)
	}
	cl2 := &peddClient{t: t, addr: inst2.addr}
	code, body := cl2.get("/v1/sessions/" + id)
	if code != http.StatusOK || !strings.Contains(body, `"state":"failed"`) || !strings.Contains(body, "corrupt") {
		t.Fatalf("quarantined session status: %d %s", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, "http://"+inst2.addr+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE quarantined session: %d", resp.StatusCode)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("corrupt wal still on disk after DELETE: %v", err)
	}
}
