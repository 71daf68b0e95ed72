// Fuzz target for the Fortran front end. CI runs it briefly on every
// push (see the chaos job); longer local runs:
//
//	go test ./internal/fortran -fuzz FuzzParse -fuzztime 5m
package fortran_test

import (
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// FuzzParse feeds arbitrary source to the parser and checks the two
// robustness invariants the rest of the system leans on: the front
// end never panics (it parses or returns an error), and anything it
// accepts round-trips — the printed form reparses, and printing that
// is a fixpoint. Session materialization and the analysis cache both
// assume print→parse→print stability.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzParseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := fortran.Parse("fuzz.f", src)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		printed := fortran.Print(file)
		re, err := fortran.Parse("fuzz.f", printed)
		if err != nil {
			t.Fatalf("accepted source prints to something unparseable: %v\n--- input ---\n%q\n--- printed ---\n%s", err, src, printed)
		}
		if again := fortran.Print(re); again != printed {
			t.Fatalf("print is not a fixpoint\n--- first ---\n%s\n--- second ---\n%s", printed, again)
		}
	})
}

// fuzzParseSeeds is FuzzParse's seed corpus: every workload's source,
// then hand-picked corner inputs.
func fuzzParseSeeds() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Source)
	}
	return append(out,
		"",
		"\n",
		"      end\n",
		"      program p\n      end\n",
		"c comment only\n",
		"      program p\n      integer i\n      do i = 1, 10\n      enddo\n      end\n",
		"      program p\n      goto 10\n 10   continue\n      end\n",
		"      program p\n      x = 1.0e\n      end\n",
		"      program p\n      a(1 = 2\n      end\n",
		"      program p\n      if (x .gt. 0) then\n      end\n",
		"      program p\n      print *, 'it''s'\n      end\n",
	)
}
