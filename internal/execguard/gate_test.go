package execguard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"parascope/internal/metrics"
)

var errFull = errors.New("gate full")

// TestGateNeverAdmitsPastItsCap: goroutines racing for three places
// never hold more than three at once, every refusal is the gate's busy
// error and counts once, and held is back to 0 when they are done.
func TestGateNeverAdmitsPastItsCap(t *testing.T) {
	tel := NewTelemetry(metrics.NewRegistry())
	g := tel.NewGate("test", 3, errFull)
	var inside, most atomic.Int64
	var refused atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				leave, err := g.Enter()
				if err != nil {
					if err != errFull {
						t.Errorf("refusal %v, want the gate's busy error", err)
					}
					refused.Add(1)
					continue
				}
				n := inside.Add(1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				inside.Add(-1)
				leave()
			}
		}()
	}
	wg.Wait()
	if most.Load() > 3 {
		t.Errorf("%d holders at once, cap 3", most.Load())
	}
	if got := tel.AdmissionRejected.With("test").Value(); got != refused.Load() {
		t.Errorf("rejected child %d, want the %d refusals", got, refused.Load())
	}
	if got := tel.AdmissionHeld.With("test").Value(); got != 0 {
		t.Errorf("held child %d after every leave, want 0", got)
	}
}

func TestGatePlaces(t *testing.T) {
	tel := NewTelemetry(metrics.NewRegistry())
	held := tel.AdmissionHeld.With("test")

	g := tel.NewGate("test", 1, errFull)
	leave, err := g.Enter()
	if err != nil {
		t.Fatal(err)
	}
	leave()
	leave() // idempotent: a second leave must not free a second place
	again, err := g.Enter()
	if err != nil {
		t.Fatalf("enter after leave: %v", err)
	}
	if _, err := g.Enter(); err != errFull {
		t.Fatalf("a double leave freed two places: %v", err)
	}

	// Force takes a place past the cap, and the cap then counts it.
	forced := g.Force()
	if got := held.Value(); got != 2 {
		t.Errorf("held %d after a forced entry past a cap of 1, want 2", got)
	}
	again()
	if _, err := g.Enter(); err != errFull {
		t.Fatalf("forced place not counted against the cap: %v", err)
	}
	forced()
	if leave, err := g.Enter(); err != nil {
		t.Fatalf("enter once every place was given back: %v", err)
	} else {
		leave()
	}

	for _, places := range []int{0, -1} {
		open := tel.NewGate("test", places, errFull)
		if open.Cap() != 0 {
			t.Errorf("gate of %d places has cap %d, want 0", places, open.Cap())
		}
		var leaves []func()
		for i := 0; i < 100; i++ {
			leave, err := open.Enter()
			if err != nil {
				t.Fatalf("gate of %d places refused entry %d: %v", places, i, err)
			}
			leaves = append(leaves, leave)
		}
		for _, leave := range leaves {
			leave()
		}
	}
	if got := held.Value(); got != 0 {
		t.Errorf("held %d once every place was given back, want 0", got)
	}
}
