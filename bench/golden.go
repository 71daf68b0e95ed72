package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parascope/bench/gen"
	"parascope/internal/codegen"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/workloads"
)

// defaultSeed is the seed whose generated programs have committed
// golden outputs. Any other seed's generated programs are checked
// against the sequential interpreter run the benchmark makes itself.
const defaultSeed = 1

// goldenDir holds the committed outputs; a test points it elsewhere.
var goldenDir = "testdata/golden"

// midSlots is how many distinct mid-size programs a seed yields; a
// plan_run session picks one by slot and salts it.
const midSlots = 3

// midSeed derives the generator seed of a slot from the run's seed.
func midSeed(seed int64, slot int) int64 { return seed*100 + int64(slot) }

// golden holds the committed outputs of the untransformed, sequential
// programs, by file name (without ".out").
type golden struct{ out map[string]string }

func loadGolden() (*golden, error) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.out"))
	if err != nil {
		return nil, err
	}
	g := &golden{out: map[string]string{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		g.out[strings.TrimSuffix(filepath.Base(f), ".out")] = string(data)
	}
	return g, nil
}

// goldenProg is one program with a committed output.
type goldenProg struct {
	name   string
	source string
	input  []float64
}

// goldenPrograms lists every program that has a golden file: the nine
// suite programs and the default seed's generated programs.
func goldenPrograms() []goldenProg {
	var ps []goldenProg
	for _, w := range workloads.All() {
		ps = append(ps, goldenProg{w.Name, w.Source, w.Input})
	}
	ps = append(ps, goldenProg{name: bigName(defaultSeed), source: gen.Generate(defaultSeed, gen.Big()).Source})
	for s := 0; s < midSlots; s++ {
		ps = append(ps, goldenProg{name: midName(defaultSeed, s),
			source: gen.Generate(midSeed(defaultSeed, s), gen.Mid()).Source})
	}
	return ps
}

func bigName(seed int64) string           { return fmt.Sprintf("big-s%d", seed) }
func midName(seed int64, slot int) string { return fmt.Sprintf("mid-s%d-%d", seed, slot) }

// reference returns the output every run of the named program must
// reproduce: the committed golden file when there is one, otherwise
// the output of a sequential interpreter run the benchmark makes here
// (the fallback for generated programs of a non-default seed, which
// then only proves that every backend and worker count agrees with the
// interpreter).
func (g *golden) reference(name, source string, input []float64) (string, error) {
	if want, ok := g.out[name]; ok {
		return want, nil
	}
	f, err := fortran.Parse(name+".f", source)
	if err != nil {
		return "", err
	}
	return interp.RunCapture(f, 1, input)
}

// updateGolden rewrites the golden files. The interpreter and the
// compiled backend are independent implementations; a file is written
// only when both print the same bytes.
func updateGolden() error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	cache, err := os.MkdirTemp("out", "golden-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache)
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for _, p := range goldenPrograms() {
		f, err := fortran.Parse(p.name+".f", p.source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		want, err := interp.RunCapture(f, 1, p.input)
		if err != nil {
			return fmt.Errorf("%s: interp: %w", p.name, err)
		}
		got, err := codegen.Exec(context.Background(), f, 1, p.input, cache, nil)
		if err != nil {
			return fmt.Errorf("%s: compiled: %w", p.name, err)
		}
		if got.Output != want {
			return fmt.Errorf("%s: refusing to write: interpreter prints %q, compiled backend prints %q",
				p.name, want, got.Output)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, p.name+".out"), []byte(want), 0o644); err != nil {
			return err
		}
	}
	return nil
}
