package core

import (
	"fmt"
	"strconv"
	"strings"

	"parascope/internal/fortran"
	"parascope/internal/xform"
)

// ParseTransformation resolves the editor's transformation grammar —
// a name of xform.Catalog followed by the row's arguments: loop
// ordinals (1-based, source order in the current unit), factors,
// variable names, statement ids — into a ready xform.Transformation
// bound to the session's current AST. This is the single grammar shared
// by the REPL's check/apply verbs, journal replay, and the speculative
// planner, so a step recorded in one context replays identically in
// every other. What a name means is the catalog's; only resolving an
// argument against the session happens here.
func ParseTransformation(s *Session, args []string) (xform.Transformation, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: apply <transformation> <loop> [args]")
	}
	name := strings.ToLower(args[0])
	row := xform.Lookup(name)
	if row == nil {
		return nil, fmt.Errorf("unknown transformation %q", name)
	}
	var a xform.Args
	for i, arg := range row.Args {
		var err error
		switch rest := args[1:]; arg.Kind {
		case xform.ArgLoop:
			var do *fortran.DoStmt
			do, err = loopArg(s, rest, i)
			a.Loops = append(a.Loops, do)
		case xform.ArgInt:
			var n int
			n, err = IntArg(rest, i, arg.What)
			a.Int = int64(n)
		case xform.ArgVar:
			a.Sym, err = varArg(s, rest, i)
		case xform.ArgStmt, xform.ArgCall:
			var st fortran.Stmt
			st, err = stmtArg(s, rest, i, arg.Kind == xform.ArgCall)
			a.Stmts = append(a.Stmts, st)
		}
		if err != nil {
			return nil, err
		}
	}
	return row.New(a), nil
}

// IntArg reads args[i] as an integer; what names it when it is missing
// or malformed. Every numeric argument of a command line goes through
// it, the REPL's own verbs included.
func IntArg(args []string, i int, what string) (int, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing %s", what)
	}
	n, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, args[i])
	}
	return n, nil
}

// loopArg resolves a 1-based loop ordinal to its DO statement.
func loopArg(s *Session, args []string, i int) (*fortran.DoStmt, error) {
	n, err := IntArg(args, i, "loop number")
	if err != nil {
		return nil, err
	}
	loops := s.Loops()
	if n < 1 || n > len(loops) {
		return nil, fmt.Errorf("loop %d out of range (1..%d)", n, len(loops))
	}
	return loops[n-1].Do, nil
}

func varArg(s *Session, args []string, i int) (*fortran.Symbol, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("missing variable name")
	}
	sym := s.CurrentUnit().Lookup(strings.ToLower(args[i]))
	if sym == nil {
		return nil, fmt.Errorf("no variable %q", args[i])
	}
	return sym, nil
}

// stmtArg resolves a statement id, to a CALL when call is set.
func stmtArg(s *Session, args []string, i int, call bool) (fortran.Stmt, error) {
	id, err := IntArg(args, i, "statement id")
	if err != nil {
		return nil, err
	}
	st := s.File.StmtByID(id)
	if _, ok := st.(*fortran.CallStmt); call && !ok {
		return nil, fmt.Errorf("statement %d is not a CALL", id)
	}
	if st == nil {
		return nil, fmt.Errorf("no statement %d", id)
	}
	return st, nil
}
