package fortran

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics mutates valid programs randomly (deletions,
// duplications, character flips, truncations) and requires the front
// end to either parse or return an error — never panic, never hang.
func TestParserNeverPanics(t *testing.T) {
	for _, src := range mutatedSources() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked: %v\ninput:\n%s", r, src)
				}
			}()
			f, err := Parse("fuzz.f", src)
			// If it parsed, printing and reparsing must also work.
			if err == nil && f != nil {
				printed := Print(f)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("printer panicked: %v\ninput:\n%s", r, src)
						}
					}()
					_, _ = Parse("fuzz2.f", printed)
				}()
			}
		}()
	}
}

// HostileSources returns this file's hostile inputs: the corner cases of
// TestLexerEdgeCases, then the mutated programs of TestParserNeverPanics.
func HostileSources() []string {
	var out []string
	for _, c := range lexerEdgeCases {
		out = append(out, c.src)
	}
	return append(out, mutatedSources()...)
}

// mutatedSources returns the inputs of TestParserNeverPanics: 400 random
// mutations (deletions, duplications, character flips, truncations) of
// each of three valid programs, the same on every call.
func mutatedSources() []string {
	seeds := []string{
		tinyProgram,
		`
      program p
      integer i, j
      real a(10,10)
      do i = 1, 10
         do j = 1, 10
            if (a(i,j) .gt. 0.0) then
               a(i,j) = sqrt(a(i,j))
            else
               a(i,j) = -a(i,j)
            endif
         enddo
      enddo
      call f(a)
      end
      subroutine f(x)
      real x(10,10)
      x(1,1) = 0.0
      return
      end
`,
		"      program q\n      goto 10\n 10   continue\n      end\n",
	}
	rnd := rand.New(rand.NewSource(99))
	chars := []byte("()=+-*/,.<>ab19 \n'")
	var out []string
	for _, seed := range seeds {
		for trial := 0; trial < 400; trial++ {
			b := []byte(seed)
			for k := 0; k < 1+rnd.Intn(6); k++ {
				if len(b) == 0 {
					break
				}
				pos := rnd.Intn(len(b))
				switch rnd.Intn(4) {
				case 0: // flip
					b[pos] = chars[rnd.Intn(len(chars))]
				case 1: // delete
					b = append(b[:pos], b[pos+1:]...)
				case 2: // duplicate a slice
					end := pos + rnd.Intn(10)
					if end > len(b) {
						end = len(b)
					}
					b = append(b[:end], append([]byte(string(b[pos:end])), b[end:]...)...)
				case 3: // truncate
					b = b[:pos]
				}
			}
			out = append(out, string(b))
		}
	}
	return out
}

// lexerEdgeCases are lexical corner inputs, each with whether the
// front end rejects it.
var lexerEdgeCases = []struct {
	src     string
	wantErr bool
}{
	{"      program p\n      x = 'unterminated\n      end\n", true},
	{"      program p\n      x = 1.5e\n      end\n", true}, // 'e' becomes ident -> x = 1.5 e -> error
	{"      program p\n      x = .notanop. 1\n      end\n", true},
	{"      program p\n      x = 1..2\n      end\n", true},
	{"      program p\n      x = 'it''s fine'\n      end\n", false},
	{"      program p\n      x = 1.e5\n      end\n", false},
	{"      program p\n      x = +5\n      end\n", false},
	{"      program p\n      x = 5\n      y = x ! trailing comment\n      end\n", false},
}

// TestLexerEdgeCases exercises lexical corner inputs.
func TestLexerEdgeCases(t *testing.T) {
	for _, c := range lexerEdgeCases {
		_, err := Parse("edge.f", c.src)
		if (err != nil) != c.wantErr {
			t.Errorf("%q: err = %v, wantErr = %v", strings.TrimSpace(c.src), err, c.wantErr)
		}
	}
}

// TestDeepNesting guards against stack issues on deep loop nests.
func TestDeepNesting(t *testing.T) {
	var b strings.Builder
	b.WriteString("      program deep\n      integer i1")
	const depth = 30
	for d := 2; d <= depth; d++ {
		b.WriteString(", i")
		b.WriteString(itoa(d))
	}
	b.WriteString("\n      real x\n")
	for d := 1; d <= depth; d++ {
		b.WriteString("      do i" + itoa(d) + " = 1, 2\n")
	}
	b.WriteString("      x = x + 1.0\n")
	for d := 1; d <= depth; d++ {
		b.WriteString("      enddo\n")
	}
	b.WriteString("      end\n")
	f, err := Parse("deep.f", b.String())
	if err != nil {
		t.Fatalf("deep nest failed to parse: %v", err)
	}
	count := 0
	WalkStmts(f.Units[0].Body, func(s Stmt) bool {
		if _, ok := s.(*DoStmt); ok {
			count++
		}
		return true
	})
	if count != depth {
		t.Errorf("got %d nested loops, want %d", count, depth)
	}
}

// TestLabelsSharedAcrossBlocks checks labeled DO loops nested in IFs.
func TestLabeledDoInsideIf(t *testing.T) {
	src := `
      program p
      integer i
      real a(10)
      if (a(1) .lt. 1.0) then
         do 20 i = 1, 10
            a(i) = 0.0
 20      continue
      endif
      end
`
	f, err := Parse("l.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ifStmt := f.Units[0].Body[0].(*IfStmt)
	if _, ok := ifStmt.Then[0].(*DoStmt); !ok {
		t.Errorf("labeled DO inside IF mis-parsed: %T", ifStmt.Then[0])
	}
}
