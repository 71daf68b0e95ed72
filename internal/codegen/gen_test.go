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
	"strconv"
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

// TestDeclines pins what the generator refuses and the reason it gives.
// A row with no reason pins the opposite: the program must compile and,
// outside -short, print what the interpreter prints.
func TestDeclines(t *testing.T) {
	cases := []struct {
		name, src, reason string
	}{
		{"external-call", `
      program p
      call nosuch(1)
      end
`, "unknown subroutine"},
		{"goto-duplicate-label", `
      program p
      integer i
    1 i = 0
    1 goto 1
      end
`, "label 1 on more than one statement"},
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
		// The pinned interpreter programs (TestInterpErrors,
		// TestInterpProof) in which some storage may hold another type
		// than a symbol naming it declares.
		{"mismatch-two-calls-down", `
      program p
      integer k
      k = 7
      call outer(k)
      print *, k, k/2
      end
      subroutine outer(n)
      integer n
      print *, n/2
      call inner(n)
      print *, n/2
      end
      subroutine inner(x)
      real x
      x = x/2
      end
`, "k of p may hold another type than its declared integer: shares storage with n of outer; outer passes integer n to real x of inner"},
		{"value-actual-typed-by-a-loosened-variable", `
      program p
      integer k
      k = 7
      call half(k)
      call show(k + 1)
      call show(k*2)
      end
      subroutine half(x)
      real x
      x = x/2
      end
      subroutine show(n)
      integer n
      print *, n, n/2
      end
`, "k of p may hold another type than its declared integer: p passes integer k to real x of half"},
		{"function-result-loosened-inside", `
      program p
      print *, f(3)/2, f(3)
      end
      function f(n)
      integer n
      f = n
      call ints(f)
      end
      subroutine ints(k)
      integer k
      k = k*2 + 1
      end
`, "f of f may hold another type than its declared real: f passes real f to integer k of ints"},
		{"element-of-loosened-array-by-value", `
      program p
      integer k(3)
      k(1) = 9
      call reals(k)
      call show(k(1))
      call show(k(2))
      end
      subroutine reals(a)
      real a(3)
      a(2) = a(1)/2
      end
      subroutine show(n)
      integer n
      print *, n, n/2
      end
`, "k of p may hold another type than its declared integer: p passes integer k to real a of reals"},
		{"tail-of-integer-array-as-reals", `
      program p
      integer k(6), i
      do i = 1, 6
         k(i) = i
      enddo
      call reals(k(4))
      print *, k(3)/2, k(4)/2, k(5)/2, k(6)
      end
      subroutine reals(a)
      real a(3)
      a(2) = a(1)/8
      end
`, "k of p may hold another type than its declared integer: p passes integer k to real a of reals"},
		{"doall-loosened-private-and-typed-reduction", `
      program p
      integer i, k, n
      real t
      n = 0
      do i = 1, 12
         k = i
         call half(k)
         t = k
         n = n + int(t*2)
      enddo
      print *, n, k
      end
      subroutine half(x)
      real x
      x = x/2
      end
`, "k of p may hold another type than its declared integer: p passes integer k to real x of half"},
		{"real-actual-for-integer-formal", `
      program p
      real x
      integer k
      x = 7.0
      k = 7
      call halve(x)
      call halve(7.0)
      call halve(k)
      call halve(7)
      call third(k)
      print *, x, k, k/2
      end
      subroutine halve(n)
      integer n
      print *, n, n/2
      end
      subroutine third(y)
      real y
      y = y/2
      end
`, "k of p may hold another type than its declared integer: shares storage with n of halve; p passes real x to integer n of halve"},
		{"integer-array-for-real-formal", `
      program p
      integer k(4), i
      do i = 1, 4
         k(i) = i
      enddo
      call scale(k)
      print *, k(1), k(2)/2, k(3), k(4)/8
      end
      subroutine scale(a)
      real a(4)
      a(2) = a(2)*1.5
      a(3) = a(4)/8
      end
`, "k of p may hold another type than its declared integer: p passes integer k to real a of scale"},
		{"common-with-two-types", `
      program p
      integer k
      real a(2)
      common /blk/ k, a
      k = 7
      a(1) = 7.0
      call s
      print *, k, k/2, a(1), a(1)/2, a(2)
      end
      subroutine s
      real k
      integer a(4)
      common /blk/ k, a
      print *, k/2, a(1)/2
      k = k/2
      a(1) = 3.9
      a(2) = 5
      end
`, "a of p may hold another type than its declared real: COMMON /blk/ a is real in p and integer in s"},
		{"real-loop-variable", `
      program p
      real x, s
      s = 0.0
      do x = 1, 4
         s = s + x/2
      enddo
      print *, x, s, x/2
      end
`, "x of p may hold another type than its declared real: a DO variable holds integers"},
		{"expression-argument", `
      program p
      real x
      x = 3.0
      call show(x*2.0)
      end
      subroutine show(n)
      integer n
      print *, n, n/2
      end
`, "n of show may hold another type than its declared integer: p passes a value of type real to integer n of show"},
		{"power-typing", `
      program p
      integer i, j, n
      parameter (n = 2)
      real x
      i = 3
      j = -2
      x = 2.0
      print *, i**2/2, i**n/2, i**j, (i**j)*2, x**2, x**i, i**x, 2**(-1), (-8)**3
      end
`, "INTEGER ** non-constant INTEGER exponent"},
		// Storage both backends keep alike: REAL and DOUBLE PRECISION are
		// one float64, printed alike, and a CHARACTER literal is
		// CHARACTER.
		{"real-actual-double-dummy", `
      program p
      real x
      x = 1.5
      call twice(x)
      print *, x
      end
      subroutine twice(y)
      double precision y
      y = y*2.0d0
      end
`, ""},
		{"real-array-double-dummy", `
      program p
      real a(3)
      a(2) = 1.5
      call twice(a)
      print *, a(1), a(2)
      end
      subroutine twice(b)
      double precision b(3)
      b(2) = b(2)*2.0d0
      end
`, ""},
		{"double-expression-real-dummy", `
      program p
      double precision d
      d = 0.25d0
      call show(d*3.0d0)
      end
      subroutine show(x)
      real x
      print *, x, x/2
      end
`, ""},
		{"character-literal-character-dummy", `
      program p
      call show('abc')
      end
      subroutine show(s)
      character*8 s
      print *, s
      end
`, ""},
		{"power-parameter-exponent", `
      program p
      integer i, n
      parameter (n = 2)
      i = 3
      print *, i**n, i**n/2
      end
`, ""},
		// Values of every storage type, passed to dummies of that type:
		// TypeOf knows the rarer intrinsics, LOGICAL and CHARACTER, so
		// the proof marks none of the dummies.
		{"value-arguments-of-every-storage-type", `
      program p
      integer k
      logical l(2)
      character*4 s
      k = -3
      l(2) = .true.
      s = 'ab'
      call show(iabs(k), sign(k, 1), dim(k, -5), l(2), s // 'cd')
      call show2(atan2(1.0, 1.0), s)
      end
      subroutine show(n, m, j, b, t)
      integer n, m, j
      logical b
      character*8 t
      print *, n, m, j, b, t
      end
      subroutine show2(x, t)
      real x
      character*8 t
      print *, x, t
      end
`, ""},
	}
	cache := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := parse(t, c.src)
			src, err := Generate(f)
			if c.reason == "" {
				if err != nil {
					t.Fatalf("want compiled, got %v", err)
				}
				typeCheckGenerated(t, src)
				if !testing.Short() {
					runBoth(t, cache, c.src, 1, nil)
				}
				return
			}
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
	// The key covers everything a cold build compiles and how: one byte
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

	// A second program on the root runs no go command: with nothing on
	// PATH, its cold build compiles and links against the root's
	// listing, and the binary prints what the interpreter prints.
	other := parse(t, strings.Replace(src, "42", "43", 1))
	want, err := interp.RunCapture(other, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", "")
	got, err := Exec(context.Background(), other, 1, nil, cache, nil)
	if err != nil {
		t.Fatalf("cold build with an empty PATH: %v", err)
	}
	if got.Output != want {
		t.Fatalf("output %q, interpreter %q", got.Output, want)
	}
}

// TestHeaderImportsListed: the listing names what header imports, so a
// cold build never meets an import the importcfg lacks.
func TestHeaderImportsListed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "header.go", header, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		got = append(got, path)
	}
	if !slices.Equal(got, headerImports) {
		t.Fatalf("header imports %v, the listing asks for %v", got, headerImports)
	}
}

// TestDeepIntrinsicNesting: Generate types each intrinsic call from its
// arguments' types once, so a chain nested 40 deep through first
// arguments generates at once rather than in time exponential in the
// depth.
func TestDeepIntrinsicNesting(t *testing.T) {
	e := "x"
	for i := range 40 {
		if i%2 == 0 {
			e = "abs(" + e + ")"
		} else {
			e = "max(min(" + e + ", y), y)"
		}
	}
	f := parse(t, "      program main\n      real x, y\n      x = -2.5\n      y = 9.0\n"+
		"      print *, "+e+"\n      end\n")
	done := make(chan error, 1)
	go func() {
		_, err := Generate(f)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Generate still running after 5 s")
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
// catches everything short of linking) for a program the interpreter's
// proof marks no symbol of.
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
		// One typing: what compiles holds no storage the interpreter
		// types at run time.
		for sym, origin := range interp.Prove(file) {
			t.Fatalf("accepted, but the proof marks %s of %s: %s", sym.Name, sym.Unit.Name, origin)
		}
		typeCheckGenerated(t, out)
	})
}
