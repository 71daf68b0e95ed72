package codegen

import (
	"context"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/fortran"
	"parascope/internal/interp"
)

func parse(t testing.TB, src string) *fortran.File {
	t.Helper()
	f, err := fortran.Parse("test.f", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// runBoth executes a program under the interpreter and compiled,
// failing unless the outputs are byte-identical.
func runBoth(t *testing.T, cache, src string, workers int, input []float64) string {
	t.Helper()
	f := parse(t, src)
	want, err := interp.RunCapture(f, workers, input)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := Exec(ctx, f, workers, input, cache, nil)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if got.Output != want {
		t.Fatalf("output mismatch\ncompiled:\n%q\ninterp:\n%q", got.Output, want)
	}
	return got.Output
}

func TestCompiledSnippets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()

	t.Run("goto-and-labels", func(t *testing.T) {
		runBoth(t, cache, `
      program p
      integer i, n
      n = 0
      i = 0
   10 continue
      i = i + 1
      n = n + i*i
      if (i .lt. 5) goto 10
      print *, n, i
      end
`, 1, nil)
	})

	t.Run("call-and-function", func(t *testing.T) {
		runBoth(t, cache, `
      program p
      real a(10), s
      integer i
      do 10 i = 1, 10
        a(i) = real(i) * 1.5
   10 continue
      call scale(a, 10, 2.0)
      s = total(a, 10)
      print *, s
      end
      subroutine scale(x, n, f)
      real x(n), f
      integer n, i
      do 20 i = 1, n
        x(i) = x(i) * f
   20 continue
      end
      function total(x, n)
      real total, x(n)
      integer n, i
      total = 0.0
      do 30 i = 1, n
        total = total + x(i)
   30 continue
      end
`, 1, nil)
	})

	t.Run("common-and-read", func(t *testing.T) {
		runBoth(t, cache, `
      program p
      common /blk/ c(4), k
      real c
      integer k, i
      real v
      read(*,*) v
      k = 3
      do 10 i = 1, 4
        c(i) = v + real(i)
   10 continue
      call show
      end
      subroutine show
      common /blk/ c(4), k
      real c
      integer k, i
      do 20 i = 1, k
        print *, c(i)
   20 continue
      end
`, 1, []float64{2.5})
	})

	t.Run("intrinsics", func(t *testing.T) {
		runBoth(t, cache, `
      program p
      real x, y
      integer i, j
      x = -3.75
      y = 2.0
      i = -7
      j = 3
      print *, abs(x), sqrt(y), mod(i, j), max(i, j), amin1(x, y)
      print *, sign(x, y), dim(y, x), nint(x), int(x), float(j)
      end
`, 1, nil)
	})

	// Integer powers wrap and cost at most 63 rounds whatever the
	// exponent: the repeated product this replaces never returned from
	// the last line, in either backend or in the constant folder.
	t.Run("integer-power", func(t *testing.T) {
		out := runBoth(t, cache, `
      program p
      integer k
      parameter (k = 2**10)
      print *, 2**62, 2**64, (-3)**5, 0**0, k
      print *, 3**9000000000000000000
      end
`, 1, nil)
		if want := "4611686018427387904 0 -243 1 1024\n-7299167144870150143\n"; out != want {
			t.Errorf("got %q, want %q", out, want)
		}
	})

	t.Run("stop-flushes", func(t *testing.T) {
		runBoth(t, cache, `
      program p
      print *, 1
      stop
      print *, 2
      end
`, 1, nil)
	})
}

func TestDeclines(t *testing.T) {
	cases := []struct {
		name, src, reason string
	}{
		{"external-call", `
      program p
      call nosuch(1)
      end
`, "unknown subroutine"},
		{"power-nonconst", `
      program p
      integer i, j, k
      i = 2
      j = 3
      k = i ** j
      print *, k
      end
`, "exponent"},
		{"whole-array-expr", `
      program p
      real a(3), b(3)
      b = a
      end
`, "whole-array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := parse(t, c.src)
			_, err := Generate(f)
			if !IsDeclined(err) {
				t.Fatalf("want declined, got %v", err)
			}
			if !strings.Contains(err.Error(), c.reason) {
				t.Fatalf("reason %q does not mention %q", err, c.reason)
			}
		})
	}
}

func TestBuildCache(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	src := `
      program p
      print *, 42
      end
`
	f := parse(t, src)
	a1, err := Build(context.Background(), f, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cached {
		t.Fatal("first build reported cached")
	}
	a2, err := Build(context.Background(), parse(t, src), cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Cached {
		t.Fatal("second build did not hit the cache")
	}
	if a1.Hash != a2.Hash {
		t.Fatalf("hash changed across identical builds: %s vs %s", a1.Hash, a2.Hash)
	}
	otherSrc, err := Generate(parse(t, strings.Replace(src, "42", "43", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if cacheKey(stagedFiles(otherSrc, rtDir), buildFlags) == a1.Hash {
		t.Fatal("different programs share a hash")
	}
	// The key covers everything go build compiles and how: one byte
	// more in a runtime package, or one more flag, must never reuse
	// this binary.
	if cacheKey(stagedFiles(a1.Source, rtDir), buildFlags) != a1.Hash {
		t.Fatal("Build's key is not the key of the module it staged")
	}
	for name := range rtFiles {
		changed := maps.Clone(rtFiles)
		changed[name] += "\n"
		if cacheKey(stagedFiles(a1.Source, rtDirName(changed)), buildFlags) == a1.Hash {
			t.Fatalf("a changed rt %s keeps the cache key", name)
		}
	}
	if cacheKey(stagedFiles(a1.Source, rtDir), append(slices.Clone(buildFlags), "-race")) == a1.Hash {
		t.Fatal("a changed build flag keeps the cache key")
	}

	// No runtime source is written per program.
	names, err := filepath.Glob(filepath.Join(a1.Dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	if want := []string{"go.mod", "main.go", manifestName, binName}; !slices.Equal(names, want) {
		t.Fatalf("entry holds %v, want %v", names, want)
	}

	// A second program on the root, built the way compile builds it
	// but with -x: the toolchain compiles main and takes the runtime
	// module's packages from its cache.
	dir := filepath.Join(cache, "build-x")
	if err := writeTree(dir, stagedFiles(otherSrc, rtDir)); err != nil {
		t.Fatal(err)
	}
	out, err := buildCmd(dir, "-x").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -x: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), " -p main ") {
		t.Fatalf("go build -x shows no compile of main:\n%s", out)
	}
	if strings.Contains(string(out), " -p rt/") {
		t.Fatalf("the second program on a root recompiled the runtime module:\n%s", out)
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	f := parse(t, `
      program p
      integer i, j
      i = 1
      j = 0
      print *, i / j
      end
`)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Exec(ctx, f, 1, nil, cache, nil)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want division-by-zero error, got %v", err)
	}
}

// typeCheckGenerated verifies a generated program against the full Go
// type system (not just the grammar), resolving the runtime module's
// import paths to the embedded sources.
var (
	genPkgs = map[string]*genPkg{
		"rt/runfmt":  {src: runfmtSrc},
		"rt/parrt":   {src: parrtSrc},
		"rt/prelude": {src: preludeSrc},
	}
	// One shared gc importer: it caches stdlib packages internally,
	// which keeps repeated type-checks (the fuzz loop) fast.
	stdImporter   = importer.Default()
	stdImporterMu sync.Mutex
)

type genPkg struct {
	src  string
	once sync.Once
	pkg  *types.Package
	err  error
}

type genImporter struct{}

func (genImporter) Import(path string) (*types.Package, error) {
	if p := genPkgs[path]; p != nil {
		p.once.Do(func() {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path+".go", p.src, 0)
			if err != nil {
				p.err = err
				return
			}
			conf := types.Config{Importer: genImporter{}}
			p.pkg, p.err = conf.Check(path, fset, []*ast.File{f}, nil)
		})
		return p.pkg, p.err
	}
	stdImporterMu.Lock()
	defer stdImporterMu.Unlock()
	return stdImporter.Import(path)
}

func typeCheckGenerated(t *testing.T, src string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", src, 0)
	if err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
	conf := types.Config{Importer: genImporter{}}
	if _, err := conf.Check("main", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("generated source does not type-check: %v\n%s", err, src)
	}
}

// FuzzCodegen asserts the generator's core contract: for any source
// the Fortran front end accepts, Generate either declines with a
// reason or emits Go that compiles (checked here with go/types, which
// catches everything short of linking).
func FuzzCodegen(f *testing.F) {
	seeds := []string{
		`
      program p
      integer i, n
      real s
      s = 0.0
      n = 10
      do 10 i = 1, n
        s = s + real(i) ** 2
   10 continue
      print *, s
      end
`,
		`
      program p
      integer i
      i = 0
   10 i = i + 1
      if (i .lt. 3) goto 10
      print *, i
      end
`,
		`
      program p
      real a(5)
      integer i
      read(*,*) a(1)
      do 10 i = 2, 5
        a(i) = a(i-1) * 2.0
   10 continue
      print *, a(5)
      end
`,
		`
      program p
      common /c/ x
      real x
      x = 1.5
      call bump
      print *, x
      end
      subroutine bump
      common /c/ x
      real x
      x = x + 1.0
      end
`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := fortran.Parse("fuzz.f", src)
		if err != nil {
			t.Skip()
		}
		out, err := Generate(file)
		if err != nil {
			if !IsDeclined(err) {
				t.Fatalf("generator failed without declining: %v", err)
			}
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatal("declined without a reason")
			}
			return
		}
		typeCheckGenerated(t, out)
	})
}
