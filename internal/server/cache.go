package server

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"parascope/internal/core"
	"parascope/internal/faultpoint"
	"parascope/internal/view"
)

// LoopArtifacts holds the precomputed panes for one loop of one unit:
// everything a read-only client asks for after selecting the loop.
type LoopArtifacts struct {
	// VarPane is the variable pane's text, byte-identical to what a live
	// session prints.
	VarPane string
	// Deps are the dependence pane's rows, unfiltered: the pane under
	// any filter `deps` takes, the per-class summary of `loop` and
	// select, and the typed deps listing are read from them with the
	// filter and the renderers a live session uses.
	Deps []DepInfo
}

// noLoop is what the artifacts hold before a loop is selected: the
// renderers' own no-selection texts.
var noLoop = &LoopArtifacts{VarPane: view.VarPaneOf(nil)}

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
// hit serve read-only queries straight from these texts and rows and
// only materialize a live core.Session for a line they cannot answer.
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

// BuildArtifacts keeps the panes of every loop of every unit of a
// freshly opened (pristine, nothing selected) session. The session's
// selection and history are restored before returning, so the caller
// can go on using it as a live session.
func BuildArtifacts(key string, s *core.Session) *Artifacts {
	histLen := len(s.History)
	cur := s.CurrentUnit()
	a := &Artifacts{
		Key:         key,
		Path:        s.File.Path,
		Printed:     s.Save(),
		PrintedHash: s.SourceHash(),
	}
	for i, u := range s.File.Units {
		if u == cur {
			a.DefaultUnit = i
		}
		if err := s.SelectUnit(u.Name); err != nil {
			continue
		}
		ua := UnitArtifacts{
			Name:      u.Name,
			Kind:      u.Kind.String(),
			LoopsText: view.LoopList(s),
			PerfText:  s.Estimate().Report(),
		}
		for j := range s.Loops() {
			if err := s.SelectLoop(j + 1); err != nil {
				continue
			}
			deps, vars := s.LoopPanes()
			ua.Loops = append(ua.Loops, LoopArtifacts{VarPane: view.VarPaneOf(vars), Deps: deps})
		}
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

// lru is a bounded least-recently-used map, safe for concurrent use —
// the structure under the artifact cache and the plan-result cache.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), entries: map[string]*list.Element{}}
}

func (c *lru[V]) get(key string) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return val, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts (or refreshes) key and reports how many least recently
// used entries that pushed out.
func (c *lru[V]) put(key string, val V) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key, val})
	for ; c.order.Len() > c.max; evicted++ {
		delete(c.entries, c.order.Remove(c.order.Back()).(*lruEntry[V]).key)
	}
	return evicted
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cache is a bounded LRU of analysis artifacts keyed by content hash,
// behind a doorkeeper (TinyLFU's): a source is cached on its second
// open, not its first, because most texts are opened once. A nil
// *Cache is valid, always misses and never admits.
type Cache struct {
	arts *lru[*Artifacts]
	// seen holds the keys that missed, up to the artifact capacity. It
	// is apart from arts, so a flood of one-off opens pushes out other
	// one-off keys, never the artifacts of a source users reopen.
	seen         *lru[struct{}]
	hits, misses atomic.Int64
	// metrics mirrors the counters into the scrapeable registry.
	metrics *Metrics
}

func newCache(max int, metrics *Metrics) *Cache {
	return &Cache{arts: newLRU[*Artifacts](max), seen: newLRU[struct{}](max), metrics: metrics}
}

// Admit reports whether key missed before, recording this miss: the
// caller builds and Puts the artifacts only when it did. Two racing
// first opens of one source may both be told no; the next is told yes.
func (c *Cache) Admit(key string) bool {
	if c == nil {
		return false
	}
	if _, ok := c.seen.get(key); ok {
		return true
	}
	c.seen.put(key, struct{}{})
	return false
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
	art, ok := c.arts.get(key)
	if !ok {
		c.misses.Add(1)
		c.metrics.CacheMisses.Inc()
		return nil
	}
	c.hits.Add(1)
	c.metrics.CacheHits.Inc()
	return art
}

// Put inserts (or refreshes) artifacts, evicting the least recently
// used entry past capacity.
func (c *Cache) Put(a *Artifacts) {
	if c == nil || c.arts.max <= 0 {
		return
	}
	c.metrics.CacheEvictions.Add(uint64(c.arts.put(a.Key, a)))
}

// Stats reports the counters.
func (c *Cache) Stats() CacheStatsResponse {
	if c == nil {
		return CacheStatsResponse{}
	}
	return CacheStatsResponse{Entries: c.arts.len(), Hits: c.hits.Load(), Misses: c.misses.Load()}
}
