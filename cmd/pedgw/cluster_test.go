// Cluster harness: pedgw plus a fleet of pedd processes, driven over
// real sockets with real signals. These tests are the PR's proof
// obligations: kill -9 a backend mid-mutation and every acknowledged
// mutation survives byte-identically; SIGHUP scale-out rebalances live
// sessions onto the new node; a torn migration stream leaves the
// source authoritative.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parascope/internal/cluster"
)

// waitReadyz polls base/readyz until it answers 200.
func waitReadyz(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s/readyz never answered 200", base)
}

// openSession opens a "direct" workload session (id "" = minted).
func openSession(t *testing.T, base, id string) string {
	t.Helper()
	body := `{"workload":"direct"}`
	if id != "" {
		body = fmt.Sprintf(`{"workload":"direct","id":%q}`, id)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	var got struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &got); err != nil || got.ID == "" {
		t.Fatalf("open response: %v (%s)", err, raw)
	}
	return got.ID
}

func mustPost(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// cmdLine runs one session command, returning its output or an error
// for any non-200 answer (the caller decides whether that is fatal).
func cmdLine(base, id, line string) (string, error) {
	resp, err := http.Post(base+"/v1/sessions/"+id+"/cmd", "application/json",
		strings.NewReader(fmt.Sprintf(`{"line":%q}`, line)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cmd %q on %s: %d %s", line, id, resp.StatusCode, raw)
	}
	var got struct {
		Output string `json:"output"`
		Err    string `json:"error"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		return "", err
	}
	if got.Err != "" {
		return "", fmt.Errorf("cmd %q on %s: %s", line, id, got.Err)
	}
	return got.Output, nil
}

func mustCmd(t *testing.T, base, id, line string) string {
	t.Helper()
	out, err := cmdLine(base, id, line)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// listIDs returns the session IDs a node (or the gateway) reports.
func listIDs(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatalf("list %s: %v", base, err)
	}
	defer resp.Body.Close()
	var infos []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("list %s: %v", base, err)
	}
	ids := make([]string, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	return ids
}

// metricValue scrapes one un-labeled numeric series from an ops
// listener ( -1 when the series is absent).
func metricValue(t *testing.T, opsBase, name string) float64 {
	t.Helper()
	resp, err := http.Get(opsBase + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", opsBase, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(string(raw))
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s: unparsable value %q", name, m[1])
	}
	return v
}

// startNode launches one durable pedd backend.
func startNode(t *testing.T, pedd, dir string, extra ...string) *proc {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-accesslog=false",
		"-datadir", dir, "-fsync", "always",
	}, extra...)
	return startProc(t, pedd, "pedd", false, args...)
}

// sessionIDsOwedTo picks ten session IDs of which at least three hash
// to newcomer on the ring of the two addresses, so a scale-out test
// knows migrations are owed instead of hoping a random ID lands there:
// with kernel-picked ports the two-node ring leaves the newcomer none
// of ten random IDs about one time in thirty.
func sessionIDsOwedTo(prefix, resident, newcomer string) (ids []string, owed int) {
	ring := cluster.NewRing(0, []string{resident, newcomer})
	for i := 0; len(ids) < 10; i++ {
		id := fmt.Sprintf("%s%03d", prefix, i)
		if ring.Owner(id) == newcomer {
			owed++
		} else if len(ids)-owed >= 7 {
			continue // keep room for three owed to the newcomer
		}
		ids = append(ids, id)
	}
	return ids, owed
}

// TestClusterKill9Failover is the tentpole proof. Three durable pedd
// backends behind one gateway; sessions opened and mutated through the
// gateway; then kill -9 lands on a backend while racing mutations are
// in flight. The gateway must detect the death, adopt the dead node's
// sessions from its journals onto surviving ring owners, and serve
// every session again — where each session's state is exactly one of
// its acknowledged states: the pre-undo save if the racing undo never
// committed, the post-undo save if it was acknowledged, never a hybrid
// and never a loss.
func TestClusterKill9Failover(t *testing.T) {
	pedd, pedgw := binaries(t)
	nodes := make([]*proc, 3)
	dirs := make([]string, 3)
	var specs []string
	for i := range nodes {
		dirs[i] = t.TempDir()
		nodes[i] = startNode(t, pedd, dirs[i])
		// addr||datadir: probes fall back to the serving port's /readyz;
		// the datadir is what failover adopts journals from.
		specs = append(specs, "http://"+nodes[i].addr+"||"+dirs[i])
	}
	gw := startProc(t, pedgw, "pedgw", true,
		"-addr", "127.0.0.1:0", "-opsaddr", "127.0.0.1:0", "-accesslog=false",
		"-backends", strings.Join(specs, ","),
		"-probeinterval", "25ms", "-upafter", "1", "-downafter", "2")
	base := "http://" + gw.addr
	ops := "http://" + gw.opsAddr
	waitReadyz(t, base)
	// /readyz answers with one backend on the ring; a session opened then
	// is migrated when the others join, and a mutation that meets it
	// mid-move is refused with 503. Wait for the whole ring.
	for deadline := time.Now().Add(10 * time.Second); metricValue(t, ops, "pedgw_ring_backends") < 3; {
		if !time.Now().Before(deadline) {
			t.Fatalf("ring never reached 3 backends\ngateway log:\n%s", gw.log())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Open and mutate sessions through the gateway; record both
	// acknowledged states each could legally end in.
	const n = 6
	baseline := map[string]string{} // pre-parallelize (state after an undo commits)
	want := map[string]string{}     // post-parallelize (state if the undo never lands)
	var ids []string
	for i := 0; i < n; i++ {
		id := openSession(t, base, "")
		mustCmd(t, base, id, "loop 1")
		baseline[id] = mustCmd(t, base, id, "save")
		mustCmd(t, base, id, "apply parallelize 1")
		out := mustCmd(t, base, id, "save")
		if !strings.Contains(out, "doall") {
			t.Fatalf("parallelize not acknowledged for %s:\n%s", id, out)
		}
		want[id] = out
		ids = append(ids, id)
	}

	// Find the victim: a backend actually holding sessions.
	victim := -1
	for i, node := range nodes {
		if len(listIDs(t, "http://"+node.addr)) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no backend holds sessions")
	}
	victimIDs := listIDs(t, "http://"+nodes[victim].addr)
	t.Logf("killing backend %s holding %d of %d sessions", nodes[victim].addr, len(victimIDs), n)

	// Race one undo per session against the kill.
	acked := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			_, err := cmdLine(base, id, "undo")
			if err == nil {
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(id)
	}
	time.Sleep(10 * time.Millisecond)
	if err := nodes[victim].cmd.Process.Kill(); err != nil { // SIGKILL, no cleanup
		t.Fatal(err)
	}
	_ = nodes[victim].cmd.Wait()
	wg.Wait()

	// Every session must come back through the same gateway address,
	// in exactly one of its acknowledged states.
	for _, id := range ids {
		var got string
		var err error
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if got, err = cmdLine(base, id, "save"); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("session %s never served after failover: %v\ngateway log:\n%s", id, err, gw.log())
		}
		switch {
		case acked[id] && got != baseline[id]:
			t.Errorf("session %s: undo was acknowledged but state is not the post-undo save:\n%s", id, got)
		case !acked[id] && got != want[id] && got != baseline[id]:
			t.Errorf("session %s: state is neither acknowledged save:\n%s", id, got)
		}
	}

	// The adoption is visible: counters on the gateway's ops listener,
	// retired journals plus tombstones in the dead node's datadir.
	if v := metricValue(t, ops, "pedgw_failover_sessions_total"); v < float64(len(victimIDs)) {
		t.Errorf("pedgw_failover_sessions_total = %v, want >= %d", v, len(victimIDs))
	}
	for _, id := range victimIDs {
		if _, err := os.Stat(filepath.Join(dirs[victim], id+".wal.migrated")); err != nil {
			t.Errorf("journal for %s not retired after adoption: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dirs[victim], id+".moved")); err != nil {
			t.Errorf("no tombstone for %s in the dead node's datadir: %v", id, err)
		}
	}

	// And the sessions are still writable on their new homes.
	for _, id := range victimIDs {
		if _, err := cmdLine(base, id, "loop 1"); err != nil {
			t.Errorf("adopted session %s is not writable: %v", id, err)
		}
	}
}

// TestClusterSIGHUPScaleOut: adding a backend to an @file spec and
// SIGHUPing the gateway must migrate live, mutated sessions onto the
// new node — with their state byte-identical through the move.
func TestClusterSIGHUPScaleOut(t *testing.T) {
	pedd, pedgw := binaries(t)
	dirA := t.TempDir()
	nodeA := startNode(t, pedd, dirA)
	conf := filepath.Join(t.TempDir(), "backends.conf")
	writeConf := func(lines ...string) {
		t.Helper()
		if err := os.WriteFile(conf, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeConf("# pedgw fleet", "http://"+nodeA.addr+"||"+dirA)

	gw := startProc(t, pedgw, "pedgw", false,
		"-addr", "127.0.0.1:0", "-accesslog=false",
		"-backends", "@"+conf,
		"-probeinterval", "25ms", "-upafter", "1", "-downafter", "2")
	base := "http://" + gw.addr
	waitReadyz(t, base)

	// The new node runs, off the ring, before any session opens, so the
	// IDs can be chosen with at least three owed to it.
	dirB := t.TempDir()
	nodeB := startNode(t, pedd, dirB)
	ids, owedB := sessionIDsOwedTo("hup", "http://"+nodeA.addr, "http://"+nodeB.addr)
	want := map[string]string{}
	for _, id := range ids {
		openSession(t, base, id)
		mustCmd(t, base, id, "loop 1")
		mustCmd(t, base, id, "apply parallelize 1")
		want[id] = mustCmd(t, base, id, "save")
	}

	writeConf("http://"+nodeA.addr+"||"+dirA, "http://"+nodeB.addr+"||"+dirB)
	if err := gw.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	// Rebalance must move the sessions the 2-node ring assigns to B.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(listIDs(t, "http://"+nodeB.addr)) == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	moved := listIDs(t, "http://"+nodeB.addr)
	if len(moved) == 0 {
		t.Fatalf("SIGHUP scale-out moved nothing onto the new backend, which is owed %d sessions\ngateway log:\n%s", owedB, gw.log())
	}
	t.Logf("scale-out moved %d of %d sessions", len(moved), len(want))

	// Every session — moved or not — serves its exact pre-move state
	// through the gateway.
	for id, out := range want {
		deadline := time.Now().Add(15 * time.Second)
		for {
			got, err := cmdLine(base, id, "save")
			if err == nil && got == out {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("session %s state wrong after scale-out: err=%v got:\n%s", id, err, got)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !strings.Contains(gw.log(), "reloaded backends: 2 configured") {
		t.Errorf("gateway log does not record the reload:\n%s", gw.log())
	}
}

// TestClusterTornMigrationChaos: with the migrate-stream faultpoint
// armed on the source node, every rebalance migration ships a torn
// journal stream. The target must refuse it and the source must stay
// authoritative: no session moves, no state changes, and the failure
// is counted — the cluster degrades loudly, never silently forks.
//
// The failure is injected, not hoped for: node B runs (off the ring)
// before any session opens, so the two-node ring is known, and the
// sessions are opened under explicit IDs of which at least three hash
// to B (sessionIDsOwedTo). With migrations known to be owed, one that
// never fails is a gateway bug — read the gateway log the failure
// prints; do not lengthen the wait.
func TestClusterTornMigrationChaos(t *testing.T) {
	pedd, pedgw := binaries(t)
	dirA := t.TempDir()
	nodeA := startNode(t, pedd, dirA, "-faults", "migrate-stream=err")
	conf := filepath.Join(t.TempDir(), "backends.conf")
	if err := os.WriteFile(conf, []byte("http://"+nodeA.addr+"||"+dirA+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gw := startProc(t, pedgw, "pedgw", true,
		"-addr", "127.0.0.1:0", "-opsaddr", "127.0.0.1:0", "-accesslog=false",
		"-backends", "@"+conf,
		"-probeinterval", "25ms", "-upafter", "1", "-downafter", "2")
	base := "http://" + gw.addr
	ops := "http://" + gw.opsAddr
	waitReadyz(t, base)

	dirB := t.TempDir()
	nodeB := startNode(t, pedd, dirB)
	addrA, addrB := "http://"+nodeA.addr, "http://"+nodeB.addr
	ids, owedB := sessionIDsOwedTo("torn", addrA, addrB)

	want := map[string]string{}
	for _, id := range ids {
		openSession(t, base, id)
		mustCmd(t, base, id, "loop 1")
		mustCmd(t, base, id, "apply parallelize 1")
		want[id] = mustCmd(t, base, id, "save")
	}

	// Scale out; every migration to the new node will tear mid-stream.
	if err := os.WriteFile(conf, []byte(addrA+"||"+dirA+"\n"+addrB+"||"+dirB+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gw.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	// The failed migrations must be counted (at least three are owed to
	// the new node)...
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && metricValue(t, ops, "pedgw_migrations_failed_total") < 1 {
		time.Sleep(50 * time.Millisecond)
	}
	if v := metricValue(t, ops, "pedgw_migrations_failed_total"); v < 1 {
		t.Fatalf("pedgw_migrations_failed_total = %v with %d sessions owed to %s, want >= 1\ngateway log:\n%s", v, owedB, addrB, gw.log())
	}
	// ...the target must have adopted nothing...
	if got := listIDs(t, "http://"+nodeB.addr); len(got) != 0 {
		t.Fatalf("torn migrations still landed %d sessions on the target: %v", len(got), got)
	}
	// ...and the source stays authoritative: every session serves its
	// exact acknowledged state through the gateway and remains mutable.
	for id, out := range want {
		got, err := cmdLine(base, id, "save")
		if err != nil {
			t.Fatalf("session %s unreachable after failed migration: %v", id, err)
		}
		if got != out {
			t.Errorf("session %s state changed across a failed migration:\nwant %s\ngot  %s", id, out, got)
		}
		if _, err := cmdLine(base, id, "loop 1"); err != nil {
			t.Errorf("session %s not mutable after failed migration: %v", id, err)
		}
	}
}
