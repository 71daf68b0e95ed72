package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"
)

// A span is one layer's share of one request: the client call, the
// gateway handler or the pedd handler. Spans of one request share the
// X-Request-ID the client minted; Parent is the index of the enclosing
// span in the file, -1 for a client span.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; nothing is written until the run
// ends. A nil tracer records nothing, so untraced runs pay one pointer
// check per boundary.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	on bool
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off; the handler wrappers stay in
// place for the whole traced pass, only their recording is toggled.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) add(name, req string, start, end time.Time) {
	if t == nil || req == "" {
		return
	}
	t.mu.Lock()
	if t.on {
		t.sp = append(t.sp, span{Name: name, Req: req,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: -1})
	}
	t.mu.Unlock()
}

// wrap times every request h serves as a span called layer.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(layer, r.Header.Get("X-Request-ID"), start, time.Now())
	})
}

// idTap is the client's transport: it remembers the request ID
// server.Client minted for the call in flight, which is the only way to
// learn it from outside the client. One tap serves one closed-loop
// client, so there is never more than one call in flight.
type idTap struct {
	base http.RoundTripper
	last string
}

func (t *idTap) RoundTrip(r *http.Request) (*http.Response, error) {
	t.last = r.Header.Get("X-Request-ID")
	return t.base.RoundTrip(r)
}

// layerTimes is what the span tree says about one traced window.
type layerTimes struct {
	clientSelf  []float64 // ms per action: client span minus its children
	gatewaySelf []float64 // µs per request: gateway span minus the pedd span
	handlerMs   float64   // total pedd handler time
}

// link sets every span's Parent (pedd under gateway under client, by
// request ID) and derives the self times: a span's duration minus the
// part of it its children cover. Spans whose request no client
// span claims — the gateway's health probes — are left as roots and
// ignored.
func (t *tracer) link() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := map[string]int{}
	gateway := map[string]int{}
	for i, s := range t.sp {
		switch s.Name {
		case "gateway":
			gateway[s.Req] = i
		case "pedd":
		default:
			client[s.Req] = i
		}
	}
	children := make([]time.Duration, len(t.sp))
	for i := range t.sp {
		s := &t.sp[i]
		p, ok := -1, false
		switch s.Name {
		case "pedd":
			if p, ok = gateway[s.Req]; !ok {
				p, ok = client[s.Req]
			}
		case "gateway":
			p, ok = client[s.Req]
		}
		if ok {
			s.Parent = p
			// A handler can outlive the call it served by what it does
			// after writing its response (the access log, deferred
			// cleanup); only the part inside the parent is the parent's.
			children[p] += time.Duration(min(s.End, t.sp[p].End) - s.Start)
		}
	}
	var lt layerTimes
	for i, s := range t.sp {
		switch {
		case s.Name == "pedd":
			if s.Parent >= 0 {
				lt.handlerMs += ms(s.dur())
			}
		case s.Name == "gateway":
			if s.Parent >= 0 {
				lt.gatewaySelf = append(lt.gatewaySelf, float64((s.dur()-children[i]).Nanoseconds())/1e3)
			}
		default:
			lt.clientSelf = append(lt.clientSelf, ms(s.dur()-children[i]))
		}
	}
	return lt
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.sp)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
