package gen

import (
	"context"
	"testing"

	"parascope/internal/codegen"
	"parascope/internal/fortran"
	"parascope/internal/interp"
)

func TestSameSeedSameSource(t *testing.T) {
	for _, cfg := range []Config{Big(), Mid()} {
		a, b := Generate(7, cfg), Generate(7, cfg)
		if a.Source != b.Source {
			t.Fatalf("seed 7 generated two different programs for %+v", cfg)
		}
		if c := Generate(8, cfg); c.Source == a.Source {
			t.Fatalf("seeds 7 and 8 generated the same program for %+v", cfg)
		}
	}
}

func TestSaltChangesTextNotOutput(t *testing.T) {
	cfg := Mid()
	base := run(t, Generate(3, cfg).Source)
	cfg.Salt = 99
	if salted := run(t, Generate(3, cfg).Source); salted != base {
		t.Fatalf("salt changed the output: %q vs %q", salted, base)
	}
}

func run(t *testing.T, src string) string {
	t.Helper()
	f, err := fortran.Parse("gen.f", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := interp.RunCapture(f, 1, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return out
}

// TestGeneratedProgramsRunBothWays is the generator's contract with the
// rest of the benchmark: every program parses, the code generator
// accepts it without declining, and the compiled binary prints exactly
// what the interpreter prints.
func TestGeneratedProgramsRunBothWays(t *testing.T) {
	if testing.Short() {
		t.Skip("builds generated programs with the Go toolchain")
	}
	cache := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"big", Big()}, {"mid", Mid()}} {
		for _, seed := range []int64{1, 2} {
			p := Generate(seed, tc.cfg)
			f, err := fortran.Parse(tc.name+".f", p.Source)
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v", tc.name, seed, err)
			}
			if _, err := codegen.Generate(f); err != nil {
				t.Fatalf("%s seed %d: codegen declined or failed: %v", tc.name, seed, err)
			}
			want, err := interp.RunCapture(f, 1, nil)
			if err != nil {
				t.Fatalf("%s seed %d: interp: %v", tc.name, seed, err)
			}
			got, err := codegen.Exec(context.Background(), f, 1, nil, cache, nil)
			if err != nil {
				t.Fatalf("%s seed %d: compiled run: %v", tc.name, seed, err)
			}
			if got.Output != want {
				t.Fatalf("%s seed %d: compiled %q, interpreted %q", tc.name, seed, got.Output, want)
			}
		}
	}
}
