package codegen

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/fortran"
)

// The runtime packages every generated program imports, shipped as
// source: parrt and runfmt are the same files the interpreter links.
var (
	//go:embed runfmt/runfmt.go
	runfmtSrc string
	//go:embed parrt/parrt.go
	parrtSrc string
	//go:embed prelude/prelude.go
	preludeSrc string
)

// rtFiles is the runtime module, staged once per cache root in a
// directory named after a hash of these files. Its path is then the
// same for every program built there, so the Go build cache (which
// keys a package on its directory) compiles the three packages once
// and a cold build compiles and links only the generated unit.
var rtFiles = map[string]string{
	"go.mod":             "module rt\n\ngo 1.24\n",
	"parrt/parrt.go":     parrtSrc,
	"prelude/prelude.go": preludeSrc,
	"runfmt/runfmt.go":   runfmtSrc,
}

func rtDirName(rt map[string]string) string { return "rt-" + cacheKey(rt, nil) }

var rtDir = rtDirName(rtFiles)

// buildFlags are the go build arguments that shape the binary. The
// linker writes no symbol table and no DWARF, which nearly halves the
// link (tracebacks need neither); and no VCS stamp, or a cache root
// inside a git work tree would put the enclosing checkout's revision
// and dirty state into every binary.
var buildFlags = []string{"-ldflags=-s -w", "-buildvcs=false"}

// stagedFiles is the module go build compiles for one generated
// program; it reaches the runtime module beside it in the cache root.
func stagedFiles(mainSrc, rtDir string) map[string]string {
	return map[string]string{
		"go.mod":  "module gen\n\ngo 1.24\n\nrequire rt v0.0.0\n\nreplace rt => ../" + rtDir + "\n",
		"main.go": mainSrc,
	}
}

// cacheKey hashes the name and content of every file of a module and
// the build flags. The key of a staged program covers everything that
// determines its binary — its go.mod names the runtime module by the
// hash of that module's files — so a change to the program, to the
// generator's lowering, to a runtime package or to a flag can never
// reuse a stale binary.
func cacheKey(files map[string]string, flags []string) string {
	h := sha256.New()
	for _, name := range slices.Sorted(maps.Keys(files)) {
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(files[name]), files[name])
	}
	for _, flag := range flags {
		fmt.Fprintf(h, "\x00flag\x00%d\x00%s", len(flag), flag)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Artifact is a compiled workload: the generated source, the cache
// directory holding the module, and the built binary.
type Artifact struct {
	Source string // generated Go source for the main package
	Dir    string // module directory inside the build cache
	Bin    string // path of the built executable
	Hash   string // cache key (staged files, runtime module, build flags)
	Cached bool   // true when a previously built binary was reused
}

// RunResult captures one execution of a compiled workload.
type RunResult struct {
	Output string        // captured stdout
	Wall   time.Duration // wall-clock time of the process
}

// manifest records what a cache entry should contain; it is written
// into the staging dir before the atomic rename, so any entry missing
// or mismatching it is by definition corrupt and never trusted.
type manifest struct {
	SHA256 string `json:"sha256"` // hex digest of the prog binary
	Size   int64  `json:"size"`   // byte length of the prog binary
}

const (
	manifestName = "manifest.json"
	binName      = "prog"
)

// binStamp is what a binary looked like when this process last
// checked it against its manifest.
type binStamp struct{ size, mtimeNs int64 }

// verified maps a cached binary's path to its binStamp: an entry is
// hashed once per process, and again whenever its size or mtime moves.
var verified sync.Map

// buildFlight dedups concurrent cold builds: N requests for the same
// uncached program trigger exactly one go build.
var buildFlight execguard.Group

// janitorMu serializes cache sweeps so concurrent builds don't race
// over the same eviction set.
var janitorMu sync.Mutex

// rtMu serializes checking and staging the runtime module among this
// process's cold builds; between processes the rename decides.
var rtMu sync.Mutex

// cacheRoot returns the directory compiled modules live under,
// preferring the user cache dir and falling back to the system temp
// directory. An explicit dir overrides both.
func cacheRoot(dir string) string {
	if dir != "" {
		return dir
	}
	if c, err := os.UserCacheDir(); err == nil {
		return filepath.Join(c, "parascope-pedc")
	}
	return filepath.Join(os.TempDir(), "parascope-pedc")
}

// Build lowers the program to Go and compiles it into the cache,
// reusing a previously built binary when the staged module's key
// matches AND the entry's manifest checksum verifies — corrupt entries
// are quarantined to <dir>.bad and transparently rebuilt. Concurrent
// builds of the same program are deduplicated to one go build.
// cacheDir may be empty to use the default location; g may be nil for
// default limits and no telemetry.
func Build(ctx context.Context, f *fortran.File, cacheDir string, g *execguard.Governor) (*Artifact, error) {
	src, err := Generate(f)
	if err != nil {
		return nil, err
	}
	files := stagedFiles(src, rtDir)
	hash := cacheKey(files, buildFlags)
	dir := filepath.Join(cacheRoot(cacheDir), hash)
	bin := filepath.Join(dir, binName)

	v, err, shared := buildFlight.Do(dir, func() (any, error) {
		art := &Artifact{Source: src, Dir: dir, Bin: bin, Hash: hash}
		if verifyEntry(dir, bin, hash, g) {
			art.Cached = true
			g.Telemetry().BuildCacheHits.Inc()
			// Refresh recency so the janitor's LRU keeps hot entries.
			now := time.Now()
			_ = os.Chtimes(dir, now, now)
			return art, nil
		}
		start := time.Now()
		if err := compile(ctx, files, dir, bin, g); err != nil {
			g.Telemetry().BuildFailures.Inc()
			return nil, err
		}
		g.Telemetry().BuildsTotal.Inc()
		g.Telemetry().BuildLatency.Observe(time.Since(start).Seconds())
		janitor(filepath.Dir(dir), g)
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		g.Telemetry().BuildDedups.Inc()
	}
	return v.(*Artifact), nil
}

// verifyEntry reports whether the cache entry at dir holds a binary
// matching its manifest, reading both the first time this process
// meets the entry and whenever the binary's size or mtime has moved
// since. Any failure — missing manifest (legacy or half-written
// entry), size or checksum mismatch, injected fault — quarantines the
// entry and returns false so the caller rebuilds.
func verifyEntry(dir, bin, hash string, g *execguard.Governor) bool {
	fi, err := os.Stat(bin)
	if err != nil || !fi.Mode().IsRegular() {
		return false
	}
	stamp := binStamp{fi.Size(), fi.ModTime().UnixNano()}
	ok := func() bool {
		if err := faultpoint.Hit(faultpoint.CacheVerify, hash); err != nil {
			return false
		}
		if seen, _ := verified.Load(bin); seen == stamp {
			return true
		}
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			return false
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return false
		}
		if fi.Size() != m.Size {
			return false
		}
		sum, err := fileSHA256(bin)
		if err != nil {
			return false
		}
		return sum == m.SHA256
	}()
	if ok {
		verified.Store(bin, stamp)
	} else {
		quarantine(dir, g)
	}
	return ok
}

// quarantine moves a corrupt cache entry (or runtime module) aside to
// <dir>.bad so it is never used again but remains inspectable until
// the janitor sweeps it; if the rename fails it is deleted outright.
func quarantine(dir string, g *execguard.Governor) {
	g.Telemetry().BuildVerifyFailures.Inc()
	verified.Delete(filepath.Join(dir, binName))
	bad := dir + ".bad"
	_ = os.RemoveAll(bad)
	if err := os.Rename(dir, bad); err != nil {
		_ = os.RemoveAll(dir)
	}
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeTree writes a module's files under dir.
func writeTree(dir string, files map[string]string) error {
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// rtIntact reports whether dir holds exactly the runtime module: every
// embedded file byte for byte and no other file, link or device.
func rtIntact(dir string) bool {
	matched := 0
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(dir, p)
		want, ok := rtFiles[filepath.ToSlash(rel)]
		if !ok || !d.Type().IsRegular() {
			return fs.ErrInvalid
		}
		got, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if string(got) != want {
			return fs.ErrInvalid
		}
		matched++
		return nil
	})
	return err == nil && matched == len(rtFiles)
}

// ensureRT makes the cache root hold the runtime module, comparing
// what is there with the embedded sources before every cold build: a
// module that differs is quarantined and staged afresh, by temp
// directory and atomic rename like a cache entry.
func ensureRT(root string, g *execguard.Governor) error {
	rtMu.Lock()
	defer rtMu.Unlock()
	dir := filepath.Join(root, rtDir)
	if rtIntact(dir) {
		return nil
	}
	if _, err := os.Lstat(dir); err == nil {
		quarantine(dir, g)
	}
	stage, err := os.MkdirTemp(root, "build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stage)
	if err := writeTree(stage, rtFiles); err != nil {
		return err
	}
	// Another process may win the rename; its module is checked like
	// any other.
	if err := os.Rename(stage, dir); err != nil && !rtIntact(dir) {
		return err
	}
	return nil
}

// buildCmd is the one go build invocation, to run in a staged
// module's directory; extra arguments go before the build flags.
func buildCmd(dir string, extra ...string) *exec.Cmd {
	args := append(append([]string{"build"}, extra...), buildFlags...)
	cmd := exec.Command("go", append(args, "-o", binName, ".")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=-mod=mod")
	return cmd
}

// compile writes the module into a staging directory, runs go build
// under supervision (its own timeout, group kill — a hung toolchain
// cannot wedge the daemon), writes the manifest, and atomically
// renames the result into place so concurrent builds of the same
// program never observe a half-written module.
func compile(ctx context.Context, files map[string]string, dir, bin string, g *execguard.Governor) error {
	hash := filepath.Base(dir)
	if err := faultpoint.Hit(faultpoint.ExecBuild, hash); err != nil {
		return fmt.Errorf("codegen: go build failed: %w", err)
	}
	root := filepath.Dir(dir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("codegen: create cache: %w", err)
	}
	if err := ensureRT(root, g); err != nil {
		return fmt.Errorf("codegen: stage runtime module: %w", err)
	}
	// The compiler records main.go's path, so the staging directory is
	// named after the key: the binary is then a function of the key and
	// the root. Only a second process building the same program at this
	// moment (buildFlight dedups within one) finds the name taken.
	stage := filepath.Join(root, "build-"+hash)
	if err := os.Mkdir(stage, 0o700); err != nil {
		if stage, err = os.MkdirTemp(root, "build-"); err != nil {
			return fmt.Errorf("codegen: stage build: %w", err)
		}
	}
	defer os.RemoveAll(stage)
	if err := writeTree(stage, files); err != nil {
		return fmt.Errorf("codegen: stage build: %w", err)
	}

	cmd := buildCmd(stage)
	// The build governor: its own wall budget, no output caps (build
	// diagnostics must survive whole), no RSS watchdog for the
	// toolchain.
	bg := g.With(execguard.Limits{Timeout: g.BuildTimeout(), OutputBytes: -1, StderrBytes: -1, RSSBytes: -1})
	res, err := execguard.Supervise(ctx, bg, cmd)
	if err != nil {
		if errors.Is(err, execguard.ErrTimeout) || ctx.Err() != nil {
			return fmt.Errorf("codegen: go build: %w", err)
		}
		stderr := ""
		if res != nil {
			stderr = res.Stderr
		}
		return fmt.Errorf("codegen: go build failed: %v\n%s", err, stderr)
	}

	stagedBin := filepath.Join(stage, binName)
	sum, err := fileSHA256(stagedBin)
	if err != nil {
		return fmt.Errorf("codegen: hash binary: %w", err)
	}
	fi, err := os.Stat(stagedBin)
	if err != nil {
		return fmt.Errorf("codegen: stat binary: %w", err)
	}
	mdata, _ := json.Marshal(manifest{SHA256: sum, Size: fi.Size()})
	if err := os.WriteFile(filepath.Join(stage, manifestName), mdata, 0o644); err != nil {
		return fmt.Errorf("codegen: write manifest: %w", err)
	}

	if err := os.Rename(stage, dir); err != nil {
		// A concurrent build won the rename; its binary is equivalent.
		if _, statErr := os.Stat(bin); statErr == nil {
			return nil
		}
		return fmt.Errorf("codegen: install build: %w", err)
	}
	return nil
}

// Janitor retention windows: staging dirs a build abandoned (crash
// mid-compile) and quarantined entries are garbage after these ages.
const (
	staleStageAge = time.Hour
	staleBadAge   = 24 * time.Hour
)

// janitor sweeps the cache root: stale build-* staging dirs, old *.bad
// quarantine dirs, runtime modules of other versions of this package
// once they are as old, and LRU-evicts verified entries beyond the
// governor's cache bound — the current runtime module is not an entry
// and is never counted or evicted. It runs after cold builds — the
// only time the cache grows.
func janitor(root string, g *execguard.Governor) {
	janitorMu.Lock()
	defer janitorMu.Unlock()
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type cached struct {
		path  string
		mtime time.Time
	}
	var live []cached
	now := time.Now()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		p := filepath.Join(root, e.Name())
		fi, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name(), "build-"):
			if now.Sub(fi.ModTime()) > staleStageAge {
				_ = os.RemoveAll(p)
			}
		case strings.HasSuffix(e.Name(), ".bad"):
			if now.Sub(fi.ModTime()) > staleBadAge {
				_ = os.RemoveAll(p)
			}
		case strings.HasPrefix(e.Name(), "rt-"):
			if e.Name() != rtDir && now.Sub(fi.ModTime()) > staleBadAge {
				_ = os.RemoveAll(p)
			}
		default:
			live = append(live, cached{path: p, mtime: fi.ModTime()})
		}
	}
	max := g.CacheEntries()
	if len(live) <= max {
		return
	}
	sort.Slice(live, func(i, j int) bool { return live[i].mtime.Before(live[j].mtime) })
	for _, c := range live[:len(live)-max] {
		_ = os.RemoveAll(c.path)
		verified.Delete(filepath.Join(c.path, binName))
		g.Telemetry().BuildJanitorEvicted.Inc()
	}
}

// FormatInput renders READ input values in the exact token form the
// generated program's stdin reader parses back losslessly.
func FormatInput(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, "\n") + "\n"
}

// Run executes a built artifact with the given DOALL worker count and
// READ input under the governor's supervision: process-group spawn,
// wall timeout, output caps, RSS watchdog. Kills surface as the
// guard's typed errors (execguard.ErrTimeout etc.); a program that
// exits non-zero on its own surfaces its stderr.
func Run(ctx context.Context, art *Artifact, workers int, input []float64, g *execguard.Governor) (*RunResult, error) {
	if err := faultpoint.Hit(faultpoint.ExecRun, art.Hash); err != nil {
		return nil, fmt.Errorf("codegen: run: %w", err)
	}
	cmd := exec.Command(art.Bin, "-workers="+strconv.Itoa(workers))
	cmd.Stdin = strings.NewReader(FormatInput(input))
	res, err := execguard.Supervise(ctx, g, cmd)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	return &RunResult{Output: res.Stdout, Wall: res.Wall}, nil
}

// Exec builds (or reuses) the compiled form and runs it once.
func Exec(ctx context.Context, f *fortran.File, workers int, input []float64, cacheDir string, g *execguard.Governor) (*RunResult, error) {
	art, err := Build(ctx, f, cacheDir, g)
	if err != nil {
		return nil, err
	}
	return Run(ctx, art, workers, input, g)
}
