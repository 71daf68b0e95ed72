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
	"runtime"
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
// keys a package on its directory) compiles the three packages once,
// and one listing of the root names their archives for every cold
// build after it, which compiles and links only the generated unit.
var rtFiles = map[string]string{
	"go.mod":             "module rt\n\ngo 1.24\n",
	"parrt/parrt.go":     parrtSrc,
	"prelude/prelude.go": preludeSrc,
	"runfmt/runfmt.go":   runfmtSrc,
}

func rtDirName(rt map[string]string) string { return "rt-" + cacheKey(rt, nil) }

var rtDir = rtDirName(rtFiles)

// headerImports are the packages header imports: with everything they
// import, what every generated program links.
var headerImports = []string{"math", "rt/parrt", "rt/prelude", "rt/runfmt"}

// compileFlags and linkFlags are the toolchain arguments that shape the
// binary, those go build passes for the staged module: package main of
// a go 1.24 module, all Go, no local imports; a plain executable whose
// linker writes no symbol table and no DWARF, which nearly halves the
// link (tracebacks need neither). No module information or VCS stamp
// is linked in, so a cache root inside a git work tree cannot put the
// enclosing checkout's revision and dirty state into a binary.
// buildFlags, both sets, feed the cache key.
var (
	compileFlags = []string{"-p", "main", "-lang=go1.24", "-complete", "-nolocalimports"}
	linkFlags    = []string{"-buildmode=exe", "-s", "-w"}
	buildFlags   = slices.Concat(compileFlags, linkFlags)
)

// stagedFiles is the module a cold build compiles for one generated
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
// uncached program trigger exactly one compile and link.
var buildFlight execguard.Group

// janitorMu serializes cache sweeps so concurrent builds don't race
// over the same eviction set.
var janitorMu sync.Mutex

// rtMu serializes checking and staging the runtime module, and listing
// it, among this process's cold builds; between processes the rename
// decides. It guards listings and toolchain.
var rtMu sync.Mutex

// pkgFile is one package a generated program links and its archive in
// the Go build cache.
type pkgFile struct{ path, archive string }

// listings holds, per cache root, what go list reported of the runtime
// module: every package a generated program links, with its archive.
var listings = map[string][]pkgFile{}

// toolchain is what the go command tells this process once: the
// directory of the compiler and linker, and the configuration it gives
// them when it runs them itself. It is written once, under rtMu,
// before the first listing, and only read after linked returns.
var toolchain struct {
	dir string
	env []string
}

// toolEnv names the go command's settings the compiler and linker read:
// the listed archives were compiled under them, and the linker records
// GOROOT in the binary as it does under go build.
var toolEnv = []string{"GOROOT", "GOOS", "GOARCH", "GOEXPERIMENT"}

// goEnv confines the go command to the runtime module: no workspace,
// no network, no go.sum to keep.
var goEnv = []string{"GOWORK=off", "GOPROXY=off", "GOFLAGS=-mod=mod"}

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
// builds of the same program are deduplicated to one compile and link.
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
// directory and atomic rename like a cache entry. It reports whether
// it staged; rtMu must be held.
func ensureRT(root string, g *execguard.Governor) (staged bool, err error) {
	dir := filepath.Join(root, rtDir)
	if rtIntact(dir) {
		return false, nil
	}
	if _, err := os.Lstat(dir); err == nil {
		quarantine(dir, g)
	}
	stage, err := os.MkdirTemp(root, "build-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(stage)
	if err := writeTree(stage, rtFiles); err != nil {
		return false, err
	}
	// Another process may win the rename; its module is checked like
	// any other.
	if err := os.Rename(stage, dir); err != nil && !rtIntact(dir) {
		return false, err
	}
	return true, nil
}

// linked returns the packages a program built on root links, once
// ensureRT has compared the runtime module. go list names them and
// their archives the first time this process builds on root, after a
// restage, and after an archive has left the Go build cache (go clean
// -cache, a trim); any other cold build only stats the archives.
func linked(st *steps, root string) ([]pkgFile, error) {
	rtMu.Lock()
	defer rtMu.Unlock()
	staged, err := ensureRT(root, st.g)
	if err != nil {
		return nil, fmt.Errorf("codegen: stage runtime module: %w", err)
	}
	if pkgs, ok := listings[root]; ok && !staged && archivesPresent(pkgs) {
		return pkgs, nil
	}
	delete(listings, root)
	rt := filepath.Join(root, rtDir)
	if toolchain.dir == "" {
		out, err := st.run("go env", rt, goEnv, "go", append([]string{"env", "GOTOOLDIR"}, toolEnv...)...)
		if err != nil {
			return nil, err
		}
		vals := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(vals) != 1+len(toolEnv) || vals[0] == "" {
			return nil, fmt.Errorf("codegen: go env: unexpected output %q", out)
		}
		var env []string
		for i, name := range toolEnv {
			env = append(env, name+"="+vals[1+i])
		}
		toolchain.dir, toolchain.env = vals[0], env
	}
	out, err := st.run("go list", rt, goEnv, "go", append([]string{"list", "-export", "-deps",
		"-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}"}, headerImports...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []pkgFile
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		path, archive, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("codegen: go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkgFile{path, archive})
	}
	listings[root] = pkgs
	return pkgs, nil
}

// archivesPresent reports whether every listed archive is still there.
func archivesPresent(pkgs []pkgFile) bool {
	for _, p := range pkgs {
		if _, err := os.Stat(p.archive); err != nil {
			return false
		}
	}
	return true
}

// steps runs one cold build's toolchain processes under supervision,
// with one wall budget between them: its own timeout and group kill,
// so a hung toolchain cannot wedge the daemon, and no output caps or
// RSS watchdog, so diagnostics survive whole.
type steps struct {
	ctx      context.Context
	g        *execguard.Governor
	budget   time.Duration
	deadline time.Time
}

// run runs one named step in dir with env over the process's own
// environment and returns what it printed to stdout.
func (st *steps) run(step, dir string, env []string, name string, args ...string) (string, error) {
	left := time.Until(st.deadline)
	if left <= 0 { // a zero Limits.Timeout would mean the default
		return "", fmt.Errorf("codegen: %s: %w", step, execguard.TimeoutError(st.budget))
	}
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	// Environ sets PWD to dir, as the go command does for the tools it
	// runs: the compiler records main.go's path through it.
	cmd.Env = append(cmd.Environ(), env...)
	bg := st.g.With(execguard.Limits{Timeout: left, OutputBytes: -1, StderrBytes: -1, RSSBytes: -1})
	res, err := execguard.Supervise(st.ctx, bg, cmd)
	if err != nil {
		switch {
		case errors.Is(err, execguard.ErrTimeout):
			// The step's deadline is the build's.
			return "", fmt.Errorf("codegen: %s: %w", step, execguard.TimeoutError(st.budget))
		case st.ctx.Err() != nil:
			return "", fmt.Errorf("codegen: %s: %w", step, err)
		}
		stderr := ""
		if res != nil {
			stderr = res.Stderr
		}
		return "", fmt.Errorf("codegen: %s failed: %v\n%s", step, err, stderr)
	}
	return res.Stdout, nil
}

// Scratch files of a cold build, removed from the staging directory
// before it becomes an entry.
const (
	importcfgName = "importcfg"
	objName       = "main.a"
)

// compile builds one staged program: it lists the root's runtime
// module if it must, writes the module into a staging directory,
// compiles main.go against the listed archives and links it, writes
// the manifest, and atomically renames the result into place so
// concurrent builds of the same program never observe a half-written
// module.
func compile(ctx context.Context, files map[string]string, dir, bin string, g *execguard.Governor) error {
	hash := filepath.Base(dir)
	if err := faultpoint.Hit(faultpoint.ExecBuild, hash); err != nil {
		return fmt.Errorf("codegen: build failed: %w", err)
	}
	st := &steps{ctx: ctx, g: g, budget: g.BuildTimeout()}
	st.deadline = time.Now().Add(st.budget)
	root := filepath.Dir(dir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("codegen: create cache: %w", err)
	}
	pkgs, err := linked(st, root)
	if err != nil {
		return err
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
	var cfg strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&cfg, "packagefile %s=%s\n", p.path, p.archive)
	}
	if err := os.WriteFile(filepath.Join(stage, importcfgName), []byte(cfg.String()), 0o644); err != nil {
		return fmt.Errorf("codegen: stage build: %w", err)
	}

	// -c is the compiler back end's concurrency as go build picks it; it
	// does not change the object.
	conc := "-c=" + strconv.Itoa(min(4, runtime.GOMAXPROCS(0)))
	compileArgs := slices.Concat([]string{"-o", objName}, compileFlags, []string{conc, "-importcfg", importcfgName, "-pack", "./main.go"})
	if _, err := st.run("compile", stage, toolchain.env, filepath.Join(toolchain.dir, "compile"), compileArgs...); err != nil {
		return err
	}
	linkArgs := slices.Concat([]string{"-o", binName, "-importcfg", importcfgName}, linkFlags, []string{objName})
	if _, err := st.run("link", stage, toolchain.env, filepath.Join(toolchain.dir, "link"), linkArgs...); err != nil {
		return err
	}
	for _, name := range []string{importcfgName, objName} {
		if err := os.Remove(filepath.Join(stage, name)); err != nil {
			return fmt.Errorf("codegen: stage build: %w", err)
		}
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
