package cloud

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cynthia/internal/obs/journal"
)

// TestProviderConcurrentInvariants hammers one Provider from many
// goroutines — launches, terminations, billing, listing, journaling, and
// injected faults all at once — and checks that the running-count and
// billing invariants survive. Run under -race this also proves the locking.
func TestProviderConcurrentInvariants(t *testing.T) {
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Load()) }
	p := NewProvider(DefaultCatalog(), clock)

	p.SetFaultPlan(FaultPlan{
		Seed:          77,
		TransientRate: 0.1,
		PreemptRate:   0.1,
		PreemptMinSec: 1,
		PreemptMaxSec: 5,
	})
	// A tiny ring: concurrent lifecycle emission also exercises eviction.
	jrnl := journal.New(4)
	p.SetJournal(jrnl)

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []string
			for i := 0; i < iters; i++ {
				tick.Add(1)
				insts, err := p.Launch(M4XLarge, 1+i%2, map[string]string{"owner": "race"})
				switch {
				case err == nil:
					for _, inst := range insts {
						mine = append(mine, inst.ID)
					}
				case errors.Is(err, ErrTransient):
					// expected under fault injection
				default:
					t.Errorf("goroutine %d: launch: %v", g, err)
				}
				if b := p.Bill(); b < 0 {
					t.Errorf("goroutine %d: negative bill %v", g, b)
				}
				p.List(map[string]string{"owner": "race"})
				p.ApplyDueFaults()
				p.NextPreemption(nil)
				if len(mine) > 2 {
					id := mine[0]
					mine = mine[1:]
					if err := p.Terminate(id); err != nil {
						t.Errorf("goroutine %d: terminate %s: %v", g, id, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Settle every scheduled fault, then check the final accounting from a
	// single thread: the running count must equal the number of instances
	// actually in running state, and the bill must equal the
	// straightforward per-instance sum.
	tick.Add(10_000)
	p.ApplyDueFaults()
	now := clock()
	running := 0
	wantBill := 0.0
	for _, inst := range p.List(nil) {
		end := now
		switch inst.State {
		case StateRunning:
			running++
		case StateTerminated, StateFailed:
			end = inst.TerminatedAt
			if end < inst.LaunchedAt {
				t.Errorf("instance %s ended at %v before launch %v", inst.ID, end, inst.LaunchedAt)
			}
		}
		wantBill += (end - inst.LaunchedAt) / 3600 * inst.Type.PricePerHour
	}
	if got := p.RunningCount(M4XLarge); got != running {
		t.Errorf("RunningCount = %d, but %d instances are in running state", got, running)
	}
	if got := p.Bill(); got < wantBill*0.999999 || got > wantBill*1.000001 {
		t.Errorf("Bill = %v, want %v", got, wantBill)
	}

	for _, inst := range p.List(nil) {
		if err := p.Terminate(inst.ID); err != nil {
			t.Errorf("terminate %s: %v", inst.ID, err)
		}
	}
	if got := p.RunningCount(""); got != 0 {
		t.Errorf("after terminating every instance: %d still running", got)
	}
	// Every instance was journaled exactly twice: launched, then
	// terminated or preempted.
	if got, want := jrnl.LastSeq(), uint64(2*len(p.List(nil))); got != want {
		t.Errorf("journal holds %d lifecycle events, want %d", got, want)
	}
}
