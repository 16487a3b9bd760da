package emio

import (
	"sync"
	"testing"
)

// TestAccountantConcurrent exercises the accountant from many goroutines at
// once, charging and crediting while reading Used(). Run under -race this
// test fails on any non-atomic implementation (plain int64 fields race and
// lose updates when two goroutines charge).
func TestAccountantConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
		chunk   = 3
	)
	a := NewAccountant(int64(workers*chunk) + 5)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := a.Charge(chunk); err != nil {
					t.Errorf("charge: %v", err)
					return
				}
				_ = a.Used()
				a.Credit(chunk)
			}
		}()
	}
	wg.Wait()
	if got := a.Used(); got != 0 {
		t.Fatalf("used = %d after balanced charge/credit, want 0", got)
	}
	// Peak is schedule-dependent here but always within [chunk, limit].
	if p := a.Peak(); p < chunk || p > a.Limit() {
		t.Fatalf("peak = %d, want within [%d, %d]", p, chunk, a.Limit())
	}
}

// TestAccountantConcurrentRaisePeak races RaisePeak against charging goroutines: the final peak must be exactly the maximum of
// every raise and every observed usage high-water — a CAS-max, not a
// last-writer-wins store.
func TestAccountantConcurrentRaisePeak(t *testing.T) {
	a := NewAccountant(1 << 30)
	var wg sync.WaitGroup
	const top = 5000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(w); v <= top; v += 4 {
				a.RaisePeak(v)
			}
		}(w)
	}
	wg.Wait()
	if got := a.Peak(); got != top {
		t.Fatalf("peak = %d after concurrent raises to %d, want the max", got, top)
	}
	a.ResetPeak()
	if got := a.Peak(); got != a.Used() {
		t.Fatalf("peak = %d after reset, want current usage %d", got, a.Used())
	}
}

// TestAccountantBudgetUnderConcurrency proves the limit is enforced without
// over-admission when many goroutines contend for the last slot: with a
// budget of exactly workers*chunk elements, every concurrent holder fits and
// one extra charge must fail.
func TestAccountantBudgetUnderConcurrency(t *testing.T) {
	const (
		workers = 8
		chunk   = 4
	)
	a := NewAccountant(workers * chunk)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := a.Charge(chunk); err != nil {
				t.Errorf("charge within budget: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := a.Used(); got != workers*chunk {
		t.Fatalf("used = %d, want %d", got, workers*chunk)
	}
	if err := a.Charge(1); err == nil {
		t.Fatal("charge beyond budget succeeded")
	}
	if got := a.Peak(); got != workers*chunk {
		t.Fatalf("peak = %d includes a failed charge, want %d", got, workers*chunk)
	}
}
