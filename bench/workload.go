package main

import (
	"sync"
	"time"
)

// workload is one traffic mix. All four drive the same stack through
// server.Client with one closed-loop client; they differ in which
// layers do the work (see README.md).
type workload struct {
	name    string
	why     string
	gateway bool
	// cycle is the number of consecutive sessions after which the work
	// repeats (every suite program once, say). Windows are made of whole
	// cycles, so their slices compare; one cycle is also the fixed pass
	// the traced pass reads registry deltas over — the same work every
	// time, so its counts repeat exactly.
	cycle   int
	prepare func(e *env) error
	// session runs user session number n (0, 1, 2, … per client).
	session func(u *user, n int)
}

var allWorkloads = []*workload{t2Sessions, browseReads, bigEdit, planRun}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// window is the outcome of one stretch of driving.
type window struct {
	rec  *recorder
	wall time.Duration
	// slices is the stretch cut into pieces of whole cycles, in the
	// order client 0 drove them. Every cycle is the same work, so the
	// pieces compare.
	slices []window
}

// sessionsPerS is verified sessions over the wall time they took.
func (w window) sessionsPerS() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.rec.sessions) / w.wall.Seconds()
}

// latencyP50 and steadySessionsPerS condense the slices' readings of
// one metric to the decile on the metric's better side: the 10th
// percentile of the slices' median latencies (kind "" pools every
// kind), the 90th of their throughputs. Every slice is the same work,
// and what a busy neighbour on the host adds to some of them only ever
// makes them slower, so the better decile holds still where the median
// of the same readings wanders (README.md, "Steadiness").
func (w window) latencyP50(kind string) float64 {
	xs := make([]float64, len(w.slices))
	for i, sl := range w.slices {
		if kind == "" {
			xs[i] = median(sl.rec.all())
		} else {
			xs[i] = median(sl.rec.samples[kind])
		}
	}
	return quantile(xs, 0.1)
}

func (w window) steadySessionsPerS() float64 {
	xs := make([]float64, len(w.slices))
	for i, sl := range w.slices {
		xs[i] = sl.sessionsPerS()
	}
	return quantile(xs, 0.9)
}

// sliceMin is the least a slice of a timed window lasts: long enough
// that every slice holds its share of what the daemon does every so
// often (a garbage collection, a journal flush), short enough that a
// burst of interference on the host spoils few of them.
const sliceMin = 250 * time.Millisecond

// driver runs windows against one env, handing each client consecutive
// session numbers across windows so no two sessions of an env share a
// number (a session's salt, and so its cache behaviour, depends on it).
type driver struct {
	env  *env
	w    *workload
	next []int
}

func newDriver(e *env, w *workload) *driver {
	return &driver{env: e, w: w, next: make([]int, 2)}
}

// pass runs exactly one cycle on one client.
func (d *driver) pass() window { return d.run(1, 0, nil) }

// run drives slices of whole cycles on `clients` closed-loop clients
// (one, except where the traced pass asks what a second one does) until
// dur has elapsed; no slice starts after that, and the window's wall
// time ends when the last slice does. With no dur it runs one cycle.
// before, if there is one, is called ahead of each of client 0's slices
// with the slice's index.
func (d *driver) run(clients int, dur time.Duration, before func(slice int)) window {
	slices := make([][]window, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			u := d.env.newUser(c, nil)
			defer u.done()
			for first := true; first || time.Since(start) < dur; first = false {
				if before != nil && c == 0 {
					before(len(slices[0]))
				}
				u.rec = newRecorder()
				began := time.Now()
				for again := true; again; again = dur > 0 && time.Since(began) < sliceMin {
					for i := 0; i < d.w.cycle; i++ {
						d.w.session(u, d.next[c])
						u.endSession()
						d.next[c]++
					}
				}
				slices[c] = append(slices[c], window{rec: u.rec, wall: time.Since(began)})
			}
		}(c)
	}
	wg.Wait()
	win := window{rec: newRecorder(), wall: time.Since(start), slices: slices[0]}
	for _, ss := range slices {
		for _, sl := range ss {
			win.rec.merge(sl.rec)
		}
	}
	return win
}

// salt is unique per (client, session) within an env; stored to a dead
// variable it makes a program's text new to every content-hash cache.
func salt(client, n int) int { return (client+1)*1_000_000 + n }
