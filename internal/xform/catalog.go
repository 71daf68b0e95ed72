package xform

import (
	"strings"

	"parascope/internal/fortran"
)

// ArgKind says how a host resolves one argument of a transformation
// against the program it edits.
type ArgKind int

const (
	ArgLoop ArgKind = iota // 1-based loop ordinal in the current unit
	ArgInt                 // an integer; Arg.What names it in errors
	ArgVar                 // a variable of the current unit
	ArgStmt                // a statement id
	ArgCall                // the statement id of a CALL
)

// Arg is one argument of a catalog row.
type Arg struct {
	Kind ArgKind
	What string // what an ArgInt is, as the grammar's errors name it
}

// Args holds a line's arguments resolved: loops and statements in the
// order given, the one integer and the one variable a row may take.
type Args struct {
	Loops []*fortran.DoStmt
	Stmts []fortran.Stmt
	Int   int64
	Sym   *fortran.Symbol
}

// Row is one transformation of the catalog: the names a command line,
// a journal record or a plan step may use for it (the first is the one
// help lists), the name its Transformation reports, the arguments it
// takes, whether applying it writes nothing but a DO statement's
// parallel annotations, whether it makes a loop a DOALL (what the
// session's LoopsParallelized counts), and its constructor.
type Row struct {
	Commands      []string
	Name          string
	Args          []Arg
	AnnotatesOnly bool
	Parallelizes  bool
	New           func(Args) Transformation
}

// The argument lists most rows share.
var (
	oneLoop  = []Arg{{Kind: ArgLoop}}
	twoLoops = []Arg{{Kind: ArgLoop}, {Kind: ArgLoop}}
	loopVar  = []Arg{{Kind: ArgLoop}, {Kind: ArgVar}}
)

func loopInt(what string) []Arg { return []Arg{{Kind: ArgLoop}, {Kind: ArgInt, What: what}} }

// Catalog is every transformation the editor offers, in help order. The
// command grammar (core.ParseTransformation), RowOf, the help
// text and the planner's step lines all read this table; a
// Transformation type without a row cannot be reached by any of them.
var Catalog = []Row{
	{Commands: []string{"parallelize"}, Name: "parallelize", Args: oneLoop, AnnotatesOnly: true, Parallelizes: true,
		New: func(a Args) Transformation { return Parallelize{Do: a.Loops[0]} }},
	{Commands: []string{"serialize"}, Name: "serialize", Args: oneLoop, AnnotatesOnly: true,
		New: func(a Args) Transformation { return Serialize{Do: a.Loops[0]} }},
	{Commands: []string{"interchange"}, Name: "interchange", Args: oneLoop,
		New: func(a Args) Transformation { return Interchange{Outer: a.Loops[0]} }},
	{Commands: []string{"reverse"}, Name: "reverse", Args: oneLoop,
		New: func(a Args) Transformation { return Reverse{Do: a.Loops[0]} }},
	{Commands: []string{"distribute"}, Name: "distribute", Args: oneLoop,
		New: func(a Args) Transformation { return Distribute{Do: a.Loops[0]} }},
	{Commands: []string{"fuse"}, Name: "fuse", Args: twoLoops,
		New: func(a Args) Transformation { return Fuse{First: a.Loops[0], Second: a.Loops[1]} }},
	{Commands: []string{"skew"}, Name: "skew", Args: loopInt("skew factor"),
		New: func(a Args) Transformation { return Skew{Outer: a.Loops[0], Factor: a.Int} }},
	{Commands: []string{"stripmine", "strip-mine"}, Name: "strip-mine", Args: loopInt("strip size"),
		New: func(a Args) Transformation { return StripMine{Do: a.Loops[0], Size: a.Int} }},
	{Commands: []string{"unroll"}, Name: "unroll", Args: loopInt("unroll factor"),
		New: func(a Args) Transformation { return Unroll{Do: a.Loops[0], Factor: a.Int} }},
	{Commands: []string{"unrolljam", "unroll-and-jam"}, Name: "unroll-and-jam", Args: loopInt("unroll factor"),
		New: func(a Args) Transformation { return UnrollJam{Outer: a.Loops[0], Factor: a.Int} }},
	{Commands: []string{"peel"}, Name: "peel", Args: oneLoop,
		New: func(a Args) Transformation { return Peel{Do: a.Loops[0]} }},
	{Commands: []string{"privatize"}, Name: "privatize", Args: loopVar, AnnotatesOnly: true,
		New: func(a Args) Transformation { return Privatize{Do: a.Loops[0], Sym: a.Sym} }},
	{Commands: []string{"privatizearray", "privatize-array"}, Name: "privatize-array", Args: loopVar, AnnotatesOnly: true,
		New: func(a Args) Transformation { return PrivatizeArray{Do: a.Loops[0], Sym: a.Sym} }},
	{Commands: []string{"expand"}, Name: "scalar-expand", Args: loopVar,
		New: func(a Args) Transformation { return ScalarExpand{Do: a.Loops[0], Sym: a.Sym} }},
	{Commands: []string{"reductions"}, Name: "recognize-reductions", Args: oneLoop, AnnotatesOnly: true,
		New: func(a Args) Transformation { return RecognizeReductions{Do: a.Loops[0]} }},
	{Commands: []string{"normalize"}, Name: "normalize", Args: oneLoop,
		New: func(a Args) Transformation { return Normalize{Do: a.Loops[0]} }},
	{Commands: []string{"inline"}, Name: "inline", Args: []Arg{{Kind: ArgCall}},
		New: func(a Args) Transformation { return Inline{Call: a.Stmts[0].(*fortran.CallStmt)} }},
	{Commands: []string{"statement-interchange"}, Name: "statement-interchange", Args: []Arg{{Kind: ArgStmt}, {Kind: ArgStmt}},
		New: func(a Args) Transformation { return StmtInterchange{First: a.Stmts[0], Second: a.Stmts[1]} }},
}

// Lookup returns the row a command name selects, nil when there is none.
func Lookup(command string) *Row {
	for i := range Catalog {
		for _, c := range Catalog[i].Commands {
			if c == command {
				return &Catalog[i]
			}
		}
	}
	return nil
}

// RowOf returns t's row, the zero Row when the catalog has none. A row
// with AnnotatesOnly set writes nothing but a DO statement's parallel
// annotations — Parallel, Private, Reductions. The printer, the
// interpreter, the code generator and the planner read those;
// data-flow, dependence, interprocedural and performance analysis do
// not, so the unit's analysis is after the transformation what it was
// before.
func RowOf(t Transformation) Row {
	for i := range Catalog {
		if Catalog[i].Name == t.Name() {
			return Catalog[i]
		}
	}
	return Row{}
}

// Usage is the row as help shows it: the first command name, followed
// by its arguments when they are not the <loop> [args] every other row
// starts with.
func (r *Row) Usage() string {
	if r.Args[0].Kind == ArgLoop {
		return r.Commands[0]
	}
	return r.Commands[0] + strings.Repeat(" <stmt-id>", len(r.Args))
}
