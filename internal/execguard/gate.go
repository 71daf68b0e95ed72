package execguard

import (
	"sync"
	"sync/atomic"

	"parascope/internal/metrics"
)

// Gate is admission control for one bounded resource: at most its cap
// of holders at once, and past that Enter fails fast with the gate's
// busy error instead of queueing. Every bound of the daemon is a Gate —
// sessions, each session's actor queue, plan searches daemon-wide and
// per session, and runs — and each reports to the child of
// pedd_admission_held and pedd_admission_rejected_total its name
// labels. Gates that share a name (one per session) share the children,
// so held sums over them.
type Gate struct {
	max      int64
	busy     error
	n        atomic.Int64
	held     *metrics.Gauge
	rejected *metrics.Counter
}

// NewGate builds a gate of places places that refuses with busy and
// reports under name; places ≤ 0 admits everyone.
func (t *Telemetry) NewGate(name string, places int, busy error) *Gate {
	return &Gate{max: int64(max(places, 0)), busy: busy,
		held: t.AdmissionHeld.With(name), rejected: t.AdmissionRejected.With(name)}
}

// Enter takes a place, or returns the gate's busy error when every
// place is held. leave gives the place back and is idempotent.
func (g *Gate) Enter() (leave func(), err error) {
	for {
		n := g.n.Load()
		if g.max > 0 && n >= g.max {
			g.rejected.Inc()
			return nil, g.busy
		}
		if g.n.CompareAndSwap(n, n+1) {
			return g.taken(), nil
		}
	}
}

// Force takes a place even past the cap, for what must never be
// refused but still counts against it: a session recovery rebuilds.
func (g *Gate) Force() (leave func()) {
	g.n.Add(1)
	return g.taken()
}

func (g *Gate) taken() func() {
	g.held.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.n.Add(-1)
			g.held.Dec()
		})
	}
}

// Cap is how many places the gate has, 0 when it admits everyone.
func (g *Gate) Cap() int { return int(g.max) }
