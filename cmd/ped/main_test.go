package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"parascope/internal/server"
)

// buildPed compiles the ped binary once per test binary run.
func buildPed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ped")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runPed(t *testing.T, bin string, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code = 0
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("run ped: %v", err)
		}
		code = exitErr.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

// TestExitCodeOnUnreadableFile: a missing input file must exit
// non-zero, not print-and-exit-0.
func TestExitCodeOnUnreadableFile(t *testing.T) {
	bin := buildPed(t)
	_, stderr, code := runPed(t, bin, "", "no-such-file.f")
	if code == 0 {
		t.Fatalf("missing file exited 0 (stderr %q)", stderr)
	}
	if !strings.Contains(stderr, "no-such-file.f") {
		t.Fatalf("stderr %q does not name the file", stderr)
	}
}

// TestExitCodeOnParseError: an unparseable program must exit
// non-zero with the parse diagnostic on stderr.
func TestExitCodeOnParseError(t *testing.T) {
	bin := buildPed(t)
	bad := filepath.Join(t.TempDir(), "bad.f")
	if err := writeFile(bad, "      this is not fortran at all\n"); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runPed(t, bin, "", bad)
	if code == 0 {
		t.Fatal("parse error exited 0")
	}
	if !strings.Contains(stderr, "ped:") {
		t.Fatalf("stderr %q missing diagnostic", stderr)
	}
}

// TestExitCodeOnUnitlessSource: a source that parses to no program unit
// (a lone comment) has nothing any pane could show; ped refuses it at
// open instead of dying in the first `loops`.
func TestExitCodeOnUnitlessSource(t *testing.T) {
	bin := buildPed(t)
	src := filepath.Join(t.TempDir(), "nounit.f")
	if err := writeFile(src, "c just a comment\n"); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runPed(t, bin, "loops\nquit\n", "-batch", src)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "ped: "+src+": no program unit") {
		t.Fatalf("stderr %q does not name the file and the reason", stderr)
	}
}

// TestExitCodeOnFailedBatchCommand: in -batch mode a failed command
// (here an analysis-level error: unknown loop) must propagate a
// non-zero exit code.
func TestExitCodeOnFailedBatchCommand(t *testing.T) {
	bin := buildPed(t)
	stdout, _, code := runPed(t, bin, "loop 999\nquit\n", "-batch", "-workload", "direct")
	if code == 0 {
		t.Fatal("failed batch command exited 0")
	}
	if !strings.Contains(stdout, "error:") {
		t.Fatalf("stdout %q missing error report", stdout)
	}
}

// TestExitCodeCleanBatchScript: a successful script still exits 0.
func TestExitCodeCleanBatchScript(t *testing.T) {
	bin := buildPed(t)
	stdout, stderr, code := runPed(t, bin, "loops\nloop 1\ndeps\nquit\n", "-batch", "-workload", "direct")
	if code != 0 {
		t.Fatalf("clean script exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.Contains(stdout, "error:") {
		t.Fatalf("clean script reported errors: %s", stdout)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestRemoteMode drives the ped binary against an in-process pedd:
// the full client → HTTP → session-manager → actor → REPL path.
func TestRemoteMode(t *testing.T) {
	bin := buildPed(t)
	mgr := server.NewManager(server.Config{CacheSize: 8})
	defer mgr.Shutdown()
	ts := httptest.NewServer(server.New(mgr))
	defer ts.Close()

	stdout, stderr, code := runPed(t, bin, "loops\nloop 1\ndeps\nquit\n",
		"-remote", ts.URL, "-batch", "-workload", "direct")
	if code != 0 {
		t.Fatalf("remote script exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "do ") {
		t.Fatalf("remote loops output missing: %s", stdout)
	}
	// Session closed on exit.
	if n := len(mgr.List(context.Background())); n != 0 {
		t.Fatalf("%d sessions leaked after remote ped exit", n)
	}

	// Failing remote command propagates the exit code in batch mode.
	stdout, _, code = runPed(t, bin, "loop 999\nquit\n",
		"-remote", ts.URL, "-batch", "-workload", "direct")
	if code == 0 {
		t.Fatal("failed remote command exited 0")
	}
	if !strings.Contains(stdout, "error:") {
		t.Fatalf("remote error not reported: %s", stdout)
	}
}

// TestRemoteModeSurvivesBackpressure puts a flaky front half in front
// of pedd — every other request is rejected with 429 — and requires
// ped -remote to ride it out invisibly: the client's backoff-and-
// retry policy must absorb the rejections and the script still exits
// 0 with full output.
func TestRemoteModeSurvivesBackpressure(t *testing.T) {
	bin := buildPed(t)
	mgr := server.NewManager(server.Config{CacheSize: 8})
	defer mgr.Shutdown()
	inner := server.New(mgr)
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"daemon busy"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	stdout, stderr, code := runPed(t, bin, "loops\nloop 1\ndeps\nquit\n",
		"-remote", ts.URL, "-batch", "-workload", "direct")
	if code != 0 {
		t.Fatalf("script through 429 bursts exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "do ") {
		t.Fatalf("retried loops output missing: %s", stdout)
	}
	if rejected := n.Load() / 2; rejected == 0 {
		t.Fatal("flaky proxy never rejected a request; test proves nothing")
	}
	if len(mgr.List(context.Background())) != 0 {
		t.Fatal("sessions leaked through the flaky proxy")
	}
}

// TestRemoteRequestIDOnFailure: a failing remote operation must
// surface the request ID end to end — client generates it, the
// daemon echoes it, and ped prints it — so a user's error report can
// be correlated with the daemon's access log.
func TestRemoteRequestIDOnFailure(t *testing.T) {
	bin := buildPed(t)
	mgr := server.NewManager(server.Config{CacheSize: 8})
	defer mgr.Shutdown()
	ts := httptest.NewServer(server.New(mgr))
	defer ts.Close()

	_, stderr, code := runPed(t, bin, "",
		"-remote", ts.URL, "-batch", "-workload", "no-such-workload")
	if code == 0 {
		t.Fatal("open of unknown workload exited 0")
	}
	if !strings.Contains(stderr, "no-such-workload") {
		t.Fatalf("stderr does not name the workload: %s", stderr)
	}
	if !regexp.MustCompile(`\[req [0-9a-f]{16}\]`).MatchString(stderr) {
		t.Fatalf("stderr carries no request ID: %s", stderr)
	}
}

// powSource is a program the code generator declines (non-constant
// exponent) and the interpreter runs.
const powSource = `
      program p
      integer i, j, k
      i = 2
      j = 3
      k = i ** j
      print *, k
      end
`

// TestRemoteRunFallsBackLikeLocal pins the `run` verb's one
// implementation: `ped -remote` sends the line to the daemon as it
// sends every other, so `run backend=compile fallback` on a declined
// program prints the interpreter's output and the fallback reason — it
// used to build its own request, drop the fallback and fail — byte for
// byte what local ped prints.
func TestRemoteRunFallsBackLikeLocal(t *testing.T) {
	bin := buildPed(t)
	mgr := server.NewManager(server.Config{CacheSize: 8, RunCacheDir: t.TempDir()})
	defer mgr.Shutdown()
	ts := httptest.NewServer(server.New(mgr))
	defer ts.Close()
	src := filepath.Join(t.TempDir(), "pow.f")
	if err := writeFile(src, powSource); err != nil {
		t.Fatal(err)
	}
	// The workers argument keeps the line off a default; run twice so a
	// cache-hit (artifact-backed) session answers too.
	const script = "run 2 backend=compile fallback\nrun\nquit\n"
	local, stderr, code := runPed(t, bin, script, "-batch", src)
	if code != 0 {
		t.Fatalf("local ped exited %d\nstdout: %s\nstderr: %s", code, local, stderr)
	}
	if !strings.Contains(local, "8\n[fell back to interpreter: ") || !strings.Contains(local, "exponent") {
		t.Fatalf("local ped did not fall back:\n%s", local)
	}
	for i := 0; i < 2; i++ {
		remote, stderr, code := runPed(t, bin, script, "-remote", ts.URL, "-batch", src)
		if code != 0 {
			t.Fatalf("remote ped exited %d\nstdout: %s\nstderr: %s", code, remote, stderr)
		}
		if remote != local {
			t.Errorf("open %d: remote ped prints\n%s\nlocal ped prints\n%s", i+1, remote, local)
		}
	}
}
