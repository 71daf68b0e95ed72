package server

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"parascope/internal/core"
	"parascope/internal/faultpoint"
	"parascope/internal/fortran"
	"parascope/internal/view"
)

// LoopArtifacts holds the precomputed panes for one loop of one unit:
// everything a read-only client asks for after selecting the loop.
type LoopArtifacts struct {
	Line     int
	Depth    int
	Header   string
	Parallel bool
	// Summary is the per-class dependence count line.
	Summary string
	// DepPane and VarPane are the default-filter pane renderings —
	// byte-identical to what a live session would print.
	DepPane string
	VarPane string
	Deps    []DepInfo
}

// UnitArtifacts holds one unit's precomputed renderings.
type UnitArtifacts struct {
	Name      string
	Kind      string
	LoopsText string
	PerfText  string
	Loops     []LoopArtifacts
}

// Artifacts is the immutable analysis result of one (path, source,
// options) triple, keyed by content hash. Sessions opened on a cache
// hit serve read-only queries straight from these strings and only
// materialize a live core.Session when a mutating command arrives.
type Artifacts struct {
	Key  string
	Path string
	// Printed is the canonical pretty-printed program (`save`) and
	// PrintedHash its sha256 — the PreHash of every operation journaled
	// while a session is still artifact-backed.
	Printed     string
	PrintedHash string
	Units       []UnitArtifacts
	// DefaultUnit indexes the unit current at open (MAIN if present).
	DefaultUnit int
	// NoLoopDepPane/NoLoopVarPane are the pane renderings before any
	// loop is selected.
	NoLoopDepPane string
	NoLoopVarPane string
}

// UnitNames lists the unit names in source order.
func (a *Artifacts) UnitNames() []string {
	out := make([]string, len(a.Units))
	for i := range a.Units {
		out[i] = a.Units[i].Name
	}
	return out
}

// unitIndex finds a unit by (case-insensitive) name, or -1.
func (a *Artifacts) unitIndex(name string) int {
	name = strings.ToLower(name)
	for i := range a.Units {
		if a.Units[i].Name == name {
			return i
		}
	}
	return -1
}

// BuildArtifacts renders every pane of every loop of every unit of a
// freshly opened (pristine, nothing selected) session. The session's
// selection and history are restored before returning, so the caller
// can keep using it as the first live session for this source.
func BuildArtifacts(key string, s *core.Session) *Artifacts {
	histLen := len(s.History)
	cur := s.CurrentUnit()
	a := &Artifacts{
		Key:           key,
		Path:          s.File.Path,
		Printed:       s.Save(),
		PrintedHash:   s.SourceHash(),
		NoLoopDepPane: view.DepPane(s, core.DepFilter{}),
		NoLoopVarPane: view.VarPane(s),
	}
	for i, u := range s.File.Units {
		if u == cur {
			a.DefaultUnit = i
		}
		if err := s.SelectUnit(u.Name); err != nil {
			continue
		}
		ua := UnitArtifacts{
			Name:     u.Name,
			Kind:     u.Kind.String(),
			PerfText: s.State().Est.Report(),
		}
		var lb strings.Builder
		for j, l := range s.Loops() {
			mark := " "
			if l.Do.Parallel {
				mark = "P"
			}
			fmt.Fprintf(&lb, "%3d %s depth %d line %d: %s\n",
				j+1, mark, l.Depth, l.Do.Line(), fortran.StmtText(l.Do))
			if err := s.SelectLoop(j + 1); err != nil {
				continue
			}
			vars := s.VariablePane() // once per loop: the pane and the Private flags read it
			ua.Loops = append(ua.Loops, LoopArtifacts{
				Line:     l.Do.Line(),
				Depth:    l.Depth,
				Header:   fortran.StmtText(l.Do),
				Parallel: l.Do.Parallel,
				Summary:  view.DepSummary(s),
				DepPane:  view.DepPane(s, core.DepFilter{}),
				VarPane:  view.VarPaneOf(vars),
				Deps:     depInfos(s, vars),
			})
		}
		ua.LoopsText = lb.String()
		a.Units = append(a.Units, ua)
	}
	// Restore the pristine selection (SelectUnit clears the loop) and
	// drop the navigation noise from the transcript.
	if cur != nil {
		_ = s.SelectUnit(cur.Name)
	}
	s.History = s.History[:histLen]
	return a
}

// depInfos converts the selected loop's unfiltered dependence list to
// wire form; the Private flag snapshots the variable classification —
// vars, the loop's variable pane rows — so artifact-backed sessions can
// apply the hideprivate filter.
func depInfos(s *core.Session, vars []core.VarInfo) []DepInfo {
	classes := map[*fortran.Symbol]core.VarClass{}
	for _, row := range vars {
		classes[row.Sym] = row.Class
	}
	var out []DepInfo
	for _, d := range s.SelectionDeps(core.DepFilter{}) {
		out = append(out, DepInfo{
			ID:      d.ID,
			Class:   d.Class.String(),
			Sym:     d.Sym.Name,
			Dir:     d.DirString(),
			Level:   d.Level,
			SrcStmt: d.Src.ID(),
			DstStmt: d.Dst.ID(),
			SrcLine: d.Src.Line(),
			DstLine: d.Dst.Line(),
			Mark:    d.Mark.String(),
			Reason:  d.Reason,
			Private: classes[d.Sym] != core.ClassShared,
		})
	}
	return out
}

// filterInfos applies a DepQuery to a dependence list — the single
// filtering path shared by artifact-backed and live sessions, so a
// hash-hit answer is identical to a cold one by construction.
func filterInfos(all []DepInfo, q DepQuery) []DepInfo {
	out := []DepInfo{}
	for _, d := range all {
		if q.Carried && d.Level == 0 {
			continue
		}
		if q.HideRejected && d.Mark == "rejected" {
			continue
		}
		if q.Sym != "" && d.Sym != strings.ToLower(q.Sym) {
			continue
		}
		if len(q.Classes) > 0 {
			ok := false
			for _, c := range q.Classes {
				if d.Class == c {
					ok = true
				}
			}
			if !ok {
				continue
			}
		}
		if q.HidePrivate && d.Private {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Cache is a bounded LRU of analysis artifacts keyed by content hash.
// A nil *Cache is valid and always misses.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *Artifacts
	entries map[string]*list.Element
	hits    int64
	misses  int64
	// metrics mirrors the hit/miss counters into the scrapeable
	// registry (nil = unmirrored, for caches built outside a Manager).
	metrics *Metrics
}

// NewCache creates a cache holding at most max artifact sets.
func NewCache(max int) *Cache {
	return &Cache{max: max, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the artifacts for key, or nil on a miss. An injected
// cache-get fault degrades the lookup to a miss (the open falls back
// to a cold analysis) — cache failure must never fail a request.
func (c *Cache) Get(key string) *Artifacts {
	if c == nil {
		return nil
	}
	if err := faultpoint.Hit(faultpoint.CacheGet, key); err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		if c.metrics != nil {
			c.metrics.CacheMisses.Inc()
		}
		return nil
	}
	c.hits++
	if c.metrics != nil {
		c.metrics.CacheHits.Inc()
	}
	c.order.MoveToFront(el)
	return el.Value.(*Artifacts)
}

// Put inserts (or refreshes) artifacts, evicting the least recently
// used entry past capacity.
func (c *Cache) Put(a *Artifacts) {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[a.Key]; ok {
		el.Value = a
		c.order.MoveToFront(el)
		return
	}
	c.entries[a.Key] = c.order.PushFront(a)
	for c.order.Len() > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*Artifacts).Key)
		if c.metrics != nil {
			c.metrics.CacheEvictions.Inc()
		}
	}
}

// Stats reports the counters.
func (c *Cache) Stats() CacheStatsResponse {
	if c == nil {
		return CacheStatsResponse{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStatsResponse{Entries: c.order.Len(), Hits: c.hits, Misses: c.misses}
}
