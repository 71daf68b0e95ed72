package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// A pacer measures how fast the host is going while a run measures the
// program. The reference host is shared: for minutes at a time its
// other tenants make everything on it — a loopback round trip, an
// analysis, a go build — 1.2 to 1.5 times slower, and no statistic of a
// 20 s run sees past that. So next to every slice the pacer times laps
// of a fixed piece of work that belongs to the benchmark and never
// enters the program under test, and the run reports its times scaled
// by paceRefMs over the pace it found: milliseconds on the reference
// host when it is quiet (README.md, "Steadiness").
type pacer struct {
	srv  *http.Server
	base string
	c    *http.Client
	turn chan chan int // the echo handler's hand-off to the counting goroutine
	stop chan struct{}
	last time.Time // when breathe last returned
	laps []float64 // ms, since the last take
	err  error     // the first lap that failed; no laps run after it
}

// paceRefMs is the pace of the reference host (2 x Xeon 2.1 GHz, Go
// 1.24) when nothing else runs on it: the better decile of a run's
// laps there.
const paceRefMs = 1.6

func newPacer() (*pacer, error) {
	p := &pacer{turn: make(chan chan int), stop: make(chan struct{}), last: time.Now()}
	go func() {
		for n := 1; ; n++ {
			select {
			case reply := <-p.turn:
				reply <- n
			case <-p.stop:
				return
			}
		}
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		var in map[string]interface{}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply := make(chan int, 1)
		p.turn <- reply
		in["n"] = <-reply
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(in) // a failed write fails the lap's read
	})
	var err error
	if p.srv, p.base, err = serve(mux); err != nil {
		return nil, err
	}
	p.c = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return p, nil
}

func (p *pacer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
	close(p.stop)
	p.c.CloseIdleConnections()
}

var (
	lapBody = []byte(`{"loop":1,"unit":"main","text":"x(i) = x(i) + 0.5*y(i)"}`)
	lapSink int
)

// lap does the fixed work once: the two things the daemon's time goes
// to, in miniature. Forty JSON round trips over loopback HTTP, each
// handed to another goroutine and back like a request to a session's
// actor; then building, sorting and hashing a small symbol table, which
// allocates and chases pointers like an analysis.
func (p *pacer) lap() error {
	for i := 0; i < 40; i++ {
		resp, err := p.c.Post(p.base+"/echo", "application/json", bytes.NewReader(lapBody))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	table := map[string][]int{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("v%d", i%700)
		table[k] = append(table[k], i)
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 32<<10)
	for i, k := range keys {
		buf[i%len(buf)] = k[len(k)-1]
	}
	sum := sha256.Sum256(buf)
	lapSink += int(sum[0]) + len(keys)
	return nil
}

// breathe runs laps for a fiftieth of the time that has passed since
// it last returned, and at least three: whatever the slices' length, a
// run spends 2% of its time pacing and has a couple of hundred laps.
func (p *pacer) breathe() {
	budget := time.Since(p.last) / 50
	for start, n := time.Now(), 0; p.err == nil && (n < 3 || time.Since(start) < budget); n++ {
		lapStart := time.Now()
		if err := p.lap(); err != nil {
			p.err = fmt.Errorf("pace lap: %w", err)
			break
		}
		p.laps = append(p.laps, ms(time.Since(lapStart)))
	}
	p.last = time.Now()
}

// take returns the pace of the laps since the last take — their better
// decile, like every other reading of a run — and forgets them. It
// fails if any lap has.
func (p *pacer) take() (float64, error) {
	pace := quantile(p.laps, 0.1)
	p.laps = p.laps[:0]
	return pace, p.err
}
