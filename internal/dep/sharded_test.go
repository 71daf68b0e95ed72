package dep_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/interproc"
	"parascope/internal/workloads"
)

// manySymbolsUnit is one unit with 44 symbols (40 arrays plus the loop
// variables and a bound) referenced inside and around a 3-deep nest, so
// a sharded run has more symbols than workers and every worker reads
// the same statements' and loops' table entries.
func manySymbolsUnit() string {
	var b strings.Builder
	b.WriteString("      program many\n      integer i, j, k, n\n")
	for a := 0; a < 40; a++ {
		fmt.Fprintf(&b, "      real a%02d(20,20,20)\n", a)
	}
	b.WriteString("      n = 18\n")
	b.WriteString("      do i = 2, n\n       do j = 2, n\n        do k = 2, n\n")
	for a := 0; a < 40; a++ {
		next := (a + 1) % 40
		fmt.Fprintf(&b, "         a%02d(i,j,k) = a%02d(i-1,j,k+1) + a%02d(i,j-1,k)\n", a, a, next)
	}
	b.WriteString("        enddo\n       enddo\n")
	for a := 0; a < 40; a += 3 {
		fmt.Fprintf(&b, "       a%02d(i,1,1) = a%02d(i-1,2,n)\n", a, (a+7)%40)
	}
	b.WriteString("      enddo\n      print *, a00(2,2,2)\n      end\n")
	return b.String()
}

// dumpGraph renders every field of every dependence, and the test
// statistics, in graph order.
func dumpGraph(g *dep.Graph) string {
	var b strings.Builder
	for _, d := range g.Deps {
		fmt.Fprintf(&b, "%d %s %s #%d->#%d l%d %v %v %v %s %s %q %q\n",
			d.ID, d.Class, d.Sym.Name, d.Src.ID(), d.Dst.ID(), d.Level,
			d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers)
	}
	return b.String()
}

// TestShardedMatchesSerial: AnalyzeN's sharded run shares the
// analyzer's statement and loop tables between its goroutines; it must
// produce exactly the serial run's graph — same edges in the same
// order, same IDs, same statistics, same per-loop index — at every
// worker count. The race detector (CI runs go test -race ./...) holds
// the tables to their read-only-once-filled rule.
func TestShardedMatchesSerial(t *testing.T) {
	type program struct{ name, src string }
	progs := []program{{"many-symbols", manySymbolsUnit()}}
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, w.Source})
	}
	for _, p := range progs {
		f, err := fortran.Parse(p.name+".f", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		f.RenumberStmts()
		prog := interproc.AnalyzeProgram(f)
		for _, u := range f.Units {
			df := dataflow.Analyze(u, &interproc.Effects{Prog: prog})
			summ := &interproc.SectionProvider{Prog: prog}
			env := prog.ConstEnv(u)
			serial := dep.AnalyzeN(df, env, summ, dep.DefaultOptions(), 1)
			want := dumpGraph(serial)
			if p.name == "many-symbols" && len(serial.Deps) < 200 {
				t.Fatalf("synthetic unit has only %d dependences; it no longer exercises the shards", len(serial.Deps))
			}
			for _, workers := range []int{2, 4, 7} {
				g := dep.AnalyzeN(df, env, summ, dep.DefaultOptions(), workers)
				if got := dumpGraph(g); got != want {
					t.Errorf("%s/%s: %d workers: graph differs from the serial run\nserial:\n%s\nsharded:\n%s",
						p.name, u.Name, workers, want, got)
				}
				if !reflect.DeepEqual(g.Stats, serial.Stats) {
					t.Errorf("%s/%s: %d workers: stats %+v, serial %+v", p.name, u.Name, workers, g.Stats, serial.Stats)
				}
				for _, l := range df.Tree.All {
					a, b := serial.LoopDeps(l), g.LoopDeps(l)
					if len(a) != len(b) {
						t.Errorf("%s/%s: %d workers: loop at line %d lists %d edges, serial %d",
							p.name, u.Name, workers, l.Do.Line(), len(b), len(a))
						continue
					}
					for i := range a {
						if a[i].ID != b[i].ID {
							t.Errorf("%s/%s: %d workers: loop at line %d entry %d is edge %d, serial %d",
								p.name, u.Name, workers, l.Do.Line(), i, b[i].ID, a[i].ID)
							break
						}
					}
				}
			}
		}
	}
}
