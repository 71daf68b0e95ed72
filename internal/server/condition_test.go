package server

import (
	"sync"
	"testing"
)

// TestSessionConditionGauges: pedd_sessions_quarantined, _readonly and
// _migrating count the registered sessions in each condition, whatever
// order quarantine, read-only degradation, freeze, unfreeze and close
// reach a session in — every ordered selection of them, each on its own
// session, all at once — with close-then-quarantine a panic while the
// closed session's queue drains, and a recovery husk beside them. All
// three return to 0 once the sessions close.
func TestSessionConditionGauges(t *testing.T) {
	m := newTestManager(t, Config{DataDir: t.TempDir()})
	met := m.Metrics()
	ops := []string{"quarantine", "readonly", "freeze", "unfreeze", "close"}
	var orders [][]string
	var extend func(order []string, used int)
	extend = func(order []string, used int) {
		for i, op := range ops {
			if used&(1<<i) == 0 {
				next := append(append([]string(nil), order...), op)
				orders = append(orders, next)
				extend(next, used|1<<i)
			}
		}
	}
	extend(nil, 0)

	var wg sync.WaitGroup
	for _, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := m.newSession("", "c.f", "", nil, nil, nil)
			if err := m.register(ss, m.admit.Force(), false); err != nil {
				t.Error(err)
				return
			}
			// The actor holds one task for the whole order and panics in it
			// when the order quarantines, after close or not.
			started, panicNow, posted := make(chan struct{}), make(chan bool), make(chan error, 1)
			go func() {
				posted <- ss.post(bg, func() {
					close(started)
					if <-panicNow {
						panic("injected")
					}
				}, false)
			}()
			<-started
			var want condition
			for _, op := range order {
				switch op {
				case "quarantine":
					panicNow <- true
					<-posted
					want.failure = &FailureInfo{}
				case "readonly":
					ss.degradeReadOnly("injected")
					want.readOnly = "injected"
				case "freeze":
					ss.freeze()
					want.migrating = true
				case "unfreeze":
					ss.unfreeze()
					want.migrating = false
				case "close":
					m.Close(ss.ID)
					want.closed = true
				}
			}
			if want.failure == nil {
				panicNow <- false
				<-posted
			}
			got := ss.condition()
			if got.closed != want.closed || (got.failure != nil) != (want.failure != nil) ||
				got.readOnly != want.readOnly || got.migrating != want.migrating {
				t.Errorf("%v: condition %+v, want %+v", order, got, want)
			}
		}()
	}
	m.registerHusk("husk", "h.f", "injected", &RecoveryStats{})
	wg.Wait()

	var quarantined, readOnly, migrating int64
	count := func(on bool) int64 {
		if on {
			return 1
		}
		return 0
	}
	for _, ss := range m.all() {
		c := ss.condition()
		quarantined += count(c.failure != nil)
		readOnly += count(c.readOnly != "")
		migrating += count(c.migrating)
	}
	check := func(when string, q, r, mg int64) {
		t.Helper()
		if got := met.SessionsQuarantined.Value(); got != q {
			t.Errorf("%s: pedd_sessions_quarantined %d, want %d", when, got, q)
		}
		if got := met.SessionsReadOnly.Value(); got != r {
			t.Errorf("%s: pedd_sessions_readonly %d, want %d", when, got, r)
		}
		if got := met.SessionsMigrating.Value(); got != mg {
			t.Errorf("%s: pedd_sessions_migrating %d, want %d", when, got, mg)
		}
	}
	if quarantined == 0 || readOnly == 0 || migrating == 0 {
		t.Fatalf("at rest %d quarantined, %d read-only, %d migrating: an order is missing", quarantined, readOnly, migrating)
	}
	check("at rest", quarantined, readOnly, migrating)
	for _, ss := range m.all() {
		m.Close(ss.ID)
	}
	check("after close", 0, 0, 0)
}
