package codegen

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parascope/internal/execguard"
	"parascope/internal/interp"
)

// TestRuntimeModuleTamperRestaged: the runtime module is compared with
// the embedded sources before every cold build, so an edited or added
// file under rt-<hash> never reaches a binary — the module is
// quarantined and staged afresh, and the program prints what the
// interpreter prints.
func TestRuntimeModuleTamperRestaged(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	sink := newBuildSink()
	g := execguard.New(execguard.Config{Sink: sink})
	rt := filepath.Join(cache, rtDir)
	preludeFile := filepath.Join(rt, "prelude", "prelude.go")

	tampers := []struct {
		name string
		do   func() error
	}{
		{"edited", func() error {
			evil := strings.Replace(preludeSrc, "out.WriteString(record)", `out.WriteString("evil " + record)`, 1)
			if evil == preludeSrc {
				t.Fatal("tamper did not change the prelude")
			}
			return os.WriteFile(preludeFile, []byte(evil), 0o644)
		}},
		{"added", func() error {
			return os.WriteFile(filepath.Join(rt, "prelude", "evil.go"),
				[]byte("package prelude\n\nfunc init() { Out(\"evil\\n\") }\n"), 0o644)
		}},
	}
	for i, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(guardSrc, "7", fmt.Sprint(10+2*i), 1)
			f := parse(t, src)
			if _, err := Build(context.Background(), f, cache, g); err != nil {
				t.Fatalf("cold build staging the module: %v", err)
			}
			if !rtIntact(rt) {
				t.Fatal("a cold build left no intact runtime module")
			}
			fails := sink.count("build_verify_fail")
			if err := tc.do(); err != nil {
				t.Fatal(err)
			}
			if rtIntact(rt) {
				t.Fatal("tampered module passes the comparison")
			}

			f = parse(t, strings.Replace(guardSrc, "7", fmt.Sprint(11+2*i), 1))
			want, err := interp.RunCapture(f, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Exec(context.Background(), f, 1, nil, cache, g)
			if err != nil {
				t.Fatalf("cold build on a tampered module: %v", err)
			}
			if got.Output != want {
				t.Fatalf("output %q, interpreter %q", got.Output, want)
			}
			if sink.count("build_verify_fail") != fails+1 {
				t.Fatalf("build_verify_fail went %d -> %d, want one more", fails, sink.count("build_verify_fail"))
			}
			if !rtIntact(rt) {
				t.Fatal("module not restaged")
			}
			if _, err := os.Stat(rt + ".bad"); err != nil {
				t.Fatalf("tampered module not quarantined: %v", err)
			}
		})
	}
}

// TestConcurrentColdBuildsStageRuntimeOnce: eight distinct programs
// built at once on an empty root share one staging of the runtime
// module — nothing quarantined, nothing left over — and all run.
func TestConcurrentColdBuildsStageRuntimeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	sink := newBuildSink()
	g := execguard.New(execguard.Config{Sink: sink})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]string, n)
	for i := 0; i < n; i++ {
		f := parse(t, strings.Replace(guardSrc, "7", fmt.Sprint(100+i), 1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Exec(context.Background(), f, 1, nil, cache, g)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Output
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("%d\n", 100+i); outs[i] != want {
			t.Fatalf("program %d printed %q, want %q", i, outs[i], want)
		}
	}
	if got := sink.count("build"); got != n {
		t.Fatalf("%d go builds for %d distinct programs", got, n)
	}
	// A second staging could only follow a quarantine.
	if got := sink.count("build_verify_fail"); got != 0 {
		t.Fatalf("build_verify_fail = %d on an untouched root", got)
	}
	if dirs, _ := filepath.Glob(filepath.Join(cache, "rt-*")); len(dirs) != 1 || filepath.Base(dirs[0]) != rtDir {
		t.Fatalf("runtime module dirs %v, want exactly %s", dirs, rtDir)
	}
	if !rtIntact(filepath.Join(cache, rtDir)) {
		t.Fatal("runtime module does not verify")
	}
	if left, _ := filepath.Glob(filepath.Join(cache, "build-*")); len(left) != 0 {
		t.Fatalf("staging directories left behind: %v", left)
	}
}

// TestBinaryIndependentOfCheckout: a cache root inside a git work tree
// must not put the checkout's revision or dirty state into the binary.
// One root, three states — no repository, a fresh one, a commit — and
// the same bytes each time.
func TestBinaryIndependentOfCheckout(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	tree := t.TempDir()
	cache := filepath.Join(tree, "cache")
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", tree, "-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	build := func(state string) string {
		t.Helper()
		a, err := Build(context.Background(), parse(t, guardSrc), cache, nil)
		if err != nil {
			t.Fatalf("%s: %v", state, err)
		}
		if a.Cached {
			t.Fatalf("%s: not a cold build", state)
		}
		info, err := exec.Command("go", "version", "-m", a.Bin).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: go version -m: %v\n%s", state, err, info)
		}
		if strings.Contains(string(info), "vcs.") {
			t.Fatalf("%s: binary carries a VCS stamp:\n%s", state, info)
		}
		sum, err := fileSHA256(a.Bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(a.Dir); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	plain := build("no repository")
	if err := os.WriteFile(filepath.Join(tree, "tracked.txt"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	dirty := build("uncommitted work tree")
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "one")
	committed := build("after a commit")
	if plain != dirty || plain != committed {
		t.Fatalf("one program, one root, three binaries:\n  no repository %s\n  uncommitted    %s\n  committed      %s", plain, dirty, committed)
	}
}
