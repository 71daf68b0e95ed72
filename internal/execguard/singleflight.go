package execguard

import "sync"

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn. Used by the build pipeline so N
// cold requests for the same program trigger exactly one build.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Group is the exported singleflight handle; its zero value is ready.
type Group = flightGroup

// Do runs fn once per concurrent set of callers sharing key and
// returns its result to all of them; shared reports whether this
// caller piggybacked on another's execution.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
