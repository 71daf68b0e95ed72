// Package repl implements the text-mode command interface of the
// ParaScope Editor: the interactive surface cmd/ped exposes. Every
// command operates on a core.Session and writes its result to the
// attached writer, so scripted sessions and tests can drive the
// editor exactly as a user would.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/planner"
	"parascope/internal/view"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// REPL is one interactive editor instance.
type REPL struct {
	Session *core.Session
	Out     io.Writer
	// Done is set by the quit command.
	Done bool
	// Errors counts failed commands, so batch drivers can propagate
	// a non-zero exit code.
	Errors int
	// Plans holds the last `plan` result so `apply-plan <n>` can
	// replay a chosen sequence.
	Plans []planner.Plan
}

// New creates a REPL over an open session.
func New(s *core.Session, out io.Writer) *REPL {
	return &REPL{Session: s, Out: out}
}

// Run processes commands from r until EOF or quit.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	for !r.Done && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := r.Execute(line); err != nil {
			r.Errors++
			fmt.Fprintf(r.Out, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// Class says what a verb does to a session — the policy a host that
// journals, snapshots or serves the editor remotely needs to know about
// a line before running it.
type Class int

const (
	// Read changes nothing; also the class of a line with no known
	// verb, which Execute rejects without touching the session.
	Read Class = iota
	// Cursor moves only the current unit or the selected loop.
	Cursor
	// Mutate changes the program text or its undo history — state a
	// source snapshot can hold.
	Mutate
	// Sticky changes state outside the printed source (dependence
	// marks, assertions, variable classes, analysis toggles).
	Sticky
	// Daemon verbs run, search or report on the session's host: pedd
	// answers them itself (governed, cached, journaled step by step)
	// and never passes them to Execute, which is their in-process form.
	Daemon
)

// Verbs is the dispatcher's table: every verb Execute accepts, with
// its class. A verb missing here is an unknown command.
var Verbs = map[string]Class{
	"help": Read, "quit": Read, "exit": Read, "units": Read, "callgraph": Read,
	"loops": Read, "window": Read, "source": Read, "deps": Read, "vars": Read,
	"check": Read, "perf": Read, "rank": Read, "advise": Read, "endpoints": Read,
	"compose": Read, "history": Read, "save": Read, "legend": Read,
	"unit": Cursor, "loop": Cursor, "next": Cursor,
	"apply": Mutate, "edit": Mutate, "delete": Mutate, "undo": Mutate, "auto": Mutate,
	"mark": Sticky, "assert": Sticky, "classify": Sticky, "set": Sticky,
	"run": Daemon, "plan": Daemon, "plans": Daemon, "apply-plan": Daemon, "status": Daemon,
}

// Verb returns the lower-cased verb of a command line ("" for a blank
// one) and its class.
func Verb(line string) (string, Class) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return "", Read
	}
	v := strings.ToLower(f[0])
	return v, Verbs[v]
}

// ParseMark reads the arguments of a mark line: the dependence number
// and the judgement.
func ParseMark(args []string) (int, dep.Mark, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("usage: mark <id> accept|reject|pending")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad dependence id %q", args[0])
	}
	switch args[1] {
	case "accept":
		return id, dep.MarkAccepted, nil
	case "reject":
		return id, dep.MarkRejected, nil
	case "pending":
		return id, dep.MarkPending, nil
	}
	return 0, 0, fmt.Errorf("unknown mark %q", args[1])
}

// Execute runs one command line.
func (r *REPL) Execute(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := strings.ToLower(fields[0]), fields[1:]
	if _, ok := Verbs[cmd]; !ok {
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	s := r.Session
	switch cmd {
	case "help":
		fmt.Fprint(r.Out, helpText)
	case "quit", "exit":
		r.Done = true
	case "units":
		for _, u := range s.File.Units {
			fmt.Fprint(r.Out, view.UnitLine(u.Kind.String(), u.Name, u == s.CurrentUnit()))
		}
	case "unit":
		if len(args) != 1 {
			return fmt.Errorf("usage: unit <name>")
		}
		return s.SelectUnit(args[0])
	case "callgraph":
		fmt.Fprint(r.Out, s.Prog.Graph.String())
	case "loops":
		fmt.Fprint(r.Out, view.LoopList(s))
	case "loop":
		n, err := core.IntArg(args, 0, "loop number")
		if err != nil {
			return err
		}
		if err := s.SelectLoop(n); err != nil {
			return err
		}
		fmt.Fprint(r.Out, view.DepSummary(s), "\n")
	case "window":
		fmt.Fprint(r.Out, view.Window(s, nil, core.DepFilter{}))
	case "source":
		var filter view.SourceFilter
		if len(args) > 0 {
			switch args[0] {
			case "loops":
				filter = view.FilterLoopsOnly
			case "parallel":
				filter = view.FilterParallel
			case "contains":
				if len(args) < 2 {
					return fmt.Errorf("usage: source contains <text>")
				}
				filter = view.FilterContains(strings.Join(args[1:], " "))
			default:
				return fmt.Errorf("unknown source filter %q", args[0])
			}
		}
		fmt.Fprint(r.Out, view.SourcePane(s, filter))
	case "deps":
		f, err := ParseDepFilter(args)
		if err != nil {
			return err
		}
		fmt.Fprint(r.Out, view.DepPane(s, f))
	case "vars":
		fmt.Fprint(r.Out, view.VarPane(s))
	case "mark":
		id, m, err := ParseMark(args)
		if err != nil {
			return err
		}
		return s.MarkDep(id, m)
	case "assert":
		if len(args) != 3 {
			return fmt.Errorf("usage: assert <var> <rel> <value>")
		}
		return s.Assert(strings.Join(args, " "))
	case "classify":
		if len(args) != 2 {
			return fmt.Errorf("usage: classify <var> shared|private|reduction")
		}
		c, err := core.ParseVarClass(args[1])
		if err != nil {
			return err
		}
		return s.Classify(args[0], c)
	case "check", "apply":
		// The grammar is core's, so the REPL, journal replay and the
		// speculative planner accept exactly the same step lines.
		t, err := core.ParseTransformation(s, args)
		if err != nil {
			return err
		}
		if cmd == "check" {
			fmt.Fprintf(r.Out, "%s: %s\n", t.Name(), s.Check(t))
			return nil
		}
		v, err := s.Transform(t)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Out, "applied %s: %s\n", t.Name(), v)
	case "edit":
		if len(args) < 2 {
			return fmt.Errorf("usage: edit <stmt-id> <new text>")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("bad statement id %q", args[0])
		}
		if err := s.EditStmt(id, strings.Join(args[1:], " ")); err != nil {
			return err
		}
		r.printReanalysis(s)
	case "delete":
		id, err := core.IntArg(args, 0, "statement id")
		if err != nil {
			return err
		}
		if err := s.DeleteStmt(id); err != nil {
			return err
		}
		r.printReanalysis(s)
	case "undo":
		if err := s.Undo(); err != nil {
			return err
		}
		r.printReanalysis(s)
	case "perf":
		fmt.Fprint(r.Out, s.Estimate().Report())
	case "rank":
		for i, row := range s.Estimator().ProcedureRank() {
			fmt.Fprintf(r.Out, "%2d. %-12s %.0f\n", i+1, row.Unit.Name, row.Cost)
		}
	case "next":
		l, ok := s.NextByPerformance()
		if !ok {
			fmt.Fprintln(r.Out, "every loop is already parallel")
			return nil
		}
		fmt.Fprintf(r.Out, "selected do %s (line %d)\n", l.Header().Name, l.Do.Line())
	case "auto":
		n := s.AutoParallelize()
		fmt.Fprintf(r.Out, "parallelized %d loops\n", n)
	case "run":
		req, err := core.ParseExecRequest(args)
		if err != nil {
			return err
		}
		req.Input = workloads.InputFor(s.File.Path)
		res, err := s.Exec(context.Background(), req)
		if err != nil {
			return err
		}
		fmt.Fprint(r.Out, res.Output, res.Trailer())
	case "set":
		if len(args) != 2 {
			return fmt.Errorf("usage: set sections|constants|ranges|inputdeps|interproc on|off")
		}
		on := args[1] == "on"
		if !on && args[1] != "off" {
			return fmt.Errorf("value must be on or off")
		}
		switch args[0] {
		case "sections":
			s.Opts.UseSections = on
		case "constants":
			s.Opts.UseConstants = on
		case "ranges":
			s.Opts.UseRanges = on
		case "inputdeps":
			s.Opts.InputDeps = on
		case "interproc":
			s.Conservative = !on
		default:
			return fmt.Errorf("unknown option %q", args[0])
		}
		s.AnalyzeAll()
		fmt.Fprintf(r.Out, "%s %s; program reanalyzed\n", args[0], args[1])
	case "advise":
		sugs := s.Advise()
		if len(sugs) == 0 {
			fmt.Fprintln(r.Out, "select a loop first")
			return nil
		}
		for i, sg := range sugs {
			fmt.Fprintf(r.Out, "%d. %s\n", i+1, sg)
		}
	case "endpoints":
		id, err := core.IntArg(args, 0, "dependence id")
		if err != nil {
			return err
		}
		src, dst, err := s.DepEndpoints(id)
		if err != nil {
			return err
		}
		printEp := func(label string, ep core.Endpoint) {
			fmt.Fprintf(r.Out, "%s: line %d: %s\n", label, ep.Line, ep.Text)
			for _, cr := range ep.CalleeRefs {
				fmt.Fprintf(r.Out, "    in %s, line %d: %s\n", cr.Unit.Name, cr.Line, cr.Text)
			}
		}
		printEp("source", src)
		printEp("sink  ", dst)
	case "compose":
		ms := s.Prog.CheckComposition()
		if len(ms) == 0 {
			fmt.Fprintln(r.Out, "every call site agrees with its callee")
			return nil
		}
		for _, m := range ms {
			fmt.Fprintln(r.Out, m)
		}
	case "plan":
		opts, _, err := planner.ParseArgs(args) // in-process, async or not, the search runs here
		if err != nil {
			return err
		}
		res, err := planner.Search(context.Background(), s.File.Path, s.Save(),
			s.CurrentUnit().Name, opts, nil)
		if err != nil {
			return err
		}
		r.Plans = res.Plans
		fmt.Fprint(r.Out, res.Format())
	case "plans":
		if len(r.Plans) == 0 {
			fmt.Fprintln(r.Out, "no plans: run plan first")
			return nil
		}
		for i := range r.Plans {
			fmt.Fprint(r.Out, r.Plans[i].Format())
		}
	case "apply-plan":
		n, err := PlanRank(args)
		if err != nil {
			return err
		}
		if n < 1 || n > len(r.Plans) {
			return fmt.Errorf("no plan %d (have %d; run plan first)", n, len(r.Plans))
		}
		p := r.Plans[n-1]
		if err := p.Replay(s.SourceHash, r.Execute); err != nil {
			return err
		}
		fmt.Fprintf(r.Out, "applied plan %s: %d step(s), est %.1fx\n", p.ID, len(p.Steps), p.EstSpeedup)
	case "history":
		for _, h := range s.History {
			fmt.Fprintln(r.Out, h)
		}
	case "save":
		fmt.Fprint(r.Out, s.Save())
	case "legend":
		fmt.Fprint(r.Out, view.Legend())
	case "status":
		fmt.Fprintf(r.Out, "session %s: in-process, not journaled\n", s.File.Path)
	default:
		return fmt.Errorf("command %q is classed but has no dispatcher", cmd)
	}
	return nil
}

// PlanRank reads the rank `apply-plan [n]` names — the best plan, 1, when
// the line gives none — for the REPL and for the daemon, which serves the
// verb from its own search results.
func PlanRank(args []string) (int, error) {
	if len(args) == 0 {
		return 1, nil
	}
	return core.IntArg(args, 0, "plan rank")
}

// printReanalysis reports how the last mutation's reanalysis ran —
// the interactive-latency feedback the paper's edit loop promises.
func (r *REPL) printReanalysis(s *core.Session) {
	la := s.LastReanalysis
	fmt.Fprintf(r.Out, "reanalyzed in %s (%s)\n", la.Duration.Round(time.Microsecond), la.Mode)
}

// ParseDepFilter reads the arguments of `deps` — for the REPL, and for
// a host that answers the line from dependence rows it keeps.
func ParseDepFilter(args []string) (core.DepFilter, error) {
	var f core.DepFilter
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "carried":
			f.CarriedOnly = true
		case "hiderejected":
			f.HideRejected = true
		case "hideprivate":
			f.HidePrivate = true
		case "on":
			if i+1 >= len(args) {
				return f, fmt.Errorf("usage: deps on <var>")
			}
			i++
			f.Sym = args[i]
		default:
			c, err := DepClass(args[i])
			if err != nil {
				return f, err
			}
			f.Classes = append(f.Classes, c)
		}
	}
	return f, nil
}

// depClasses names the dependence classes `deps` filters on.
var depClasses = map[string]dep.Class{
	"true": dep.ClassFlow, "anti": dep.ClassAnti, "output": dep.ClassOutput, "control": dep.ClassControl,
}

// DepClass reads one class name of the `deps` filter, as the REPL and
// pedd's typed deps route take it.
func DepClass(name string) (dep.Class, error) {
	if c, ok := depClasses[name]; ok {
		return c, nil
	}
	return 0, fmt.Errorf("unknown deps filter %q", name)
}

// HelpText returns the command summary (also served by pedd for
// artifact-backed remote sessions).
func HelpText() string { return helpText }

var helpText = strings.Replace(helpTemplate, "@xforms\n", xformLines(), 1)

// xformLines lists the catalog's transformations as help shows them.
func xformLines() string {
	out, line := "", "    xforms:"
	for i := range xform.Catalog {
		u := xform.Catalog[i].Usage()
		if len(line)+1+len(u) > 72 {
			out, line = out+line+"\n", "           "
		}
		line += " " + u
	}
	return out + line + "\n"
}

const helpTemplate = `commands:
  units | unit <name> | callgraph        program navigation
  loops | loop <n> | next | window       loop selection and display
  source [loops|parallel|contains <t>]   source pane with view filters
  deps [carried|true|anti|output|on <v>|hiderejected|hideprivate]
  vars | legend                          variable pane
  mark <id> accept|reject|pending        dependence marking
  endpoints <id>                         follow a dependence into callees
  advise                                 guidance for the selected loop
  assert <var> <rel> <value>             user assertion (e.g. assert n .ge. 100)
  classify <var> shared|private|reduction
  check <xform> <loop> [args]            power-steering diagnosis
  apply <xform> <loop> [args]            apply a transformation
@xforms
  compose                                cross-procedure parameter checks
  edit <stmt-id> <text> | delete <id> | undo
  perf | rank | auto                     performance navigation
  plan [beam=N depth=N worlds=N ms=N top=N nointerp compiled async]
                                         speculative search: rank auto-
                                         parallelization plans in forked worlds
  plans                                  reshow the last plan result
  apply-plan [n]                         accept plan n (default 1)
  set <analysis> on|off                  toggle sections constants ranges
                                         inputdeps interproc (ablations)
  run [workers] [backend=interp|compile] [fallback] execute the program
                                  (fallback: degrade compile declines to interp)
  history | save | quit
`
