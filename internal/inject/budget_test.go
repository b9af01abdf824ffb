package inject

import (
	"sync"
	"testing"
	"time"

	"vulnstack/internal/micro"
)

// TestMachineBudget: with every machines slot taken, no campaign call
// whose faults need a machine, Prepare or PrepareFromChain finishes.
// Once the slots are free all three do, and then four calls in flight
// together; every call has more workers than the budget has slots,
// each tally equals a serial call's, and every slot is free again after
// they return. A worker that kept its slot after running out of jobs
// would hang the workers waiting behind it.
func TestMachineBudget(t *testing.T) {
	cfg := micro.ConfigA9()
	cp := shaCampaign(t, cfg, 6)
	structs := []micro.Structure{micro.StructRF, micro.StructLSQ, micro.StructL1I, micro.StructL1D, micro.StructL2}
	want := make([]Tally, len(structs))
	serial := *cp
	serial.Workers = 1
	for i, st := range structs {
		want[i] = serial.RunCampaign(st, 24, 2021, nil)
	}

	for range cap(machines) {
		acquireMachine()
	}
	got := make([]Tally, len(structs))
	var wg sync.WaitGroup
	call := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := *cp
			c.Workers = 2*cap(machines) + 1
			got[i] = c.RunCampaign(structs[i], 24, 2021, nil)
		}()
	}
	call(0)
	called := make(chan struct{})
	go func() { wg.Wait(); close(called) }()
	prepared, resumed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(prepared)
		if _, err := Prepare(cp.Img, cfg, 6); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer close(resumed)
		if _, err := PrepareFromChain(cp.Img, cfg, cp.Chain()); err != nil {
			t.Error(err)
		}
	}()
	// Waiting has no event to wait on: give a machine built outside the
	// budget a second to show by finishing. Correct code stays blocked
	// however long this is.
	time.Sleep(time.Second)
	var early []string
	for _, c := range []struct {
		what string
		done chan struct{}
	}{{"a campaign call", called}, {"Prepare", prepared}, {"PrepareFromChain", resumed}} {
		select {
		case <-c.done:
			early = append(early, c.what)
		default:
		}
	}
	for range cap(machines) {
		releaseMachine()
	}
	finish(t, called)
	finish(t, prepared)
	finish(t, resumed)
	if len(early) > 0 {
		t.Fatalf("%v finished with no machine slot free", early)
	}

	done := make(chan struct{})
	for i := 1; i < len(structs); i++ {
		call(i)
	}
	go func() { wg.Wait(); close(done) }()
	finish(t, done)
	for i, st := range structs {
		if got[i] != want[i] {
			t.Errorf("%v: concurrent calls gave %+v, serial %+v", st, got[i], want[i])
		}
	}
	if n := len(machines); n != 0 {
		t.Fatalf("%d machine slots still held after every call returned", n)
	}
}

// finish waits for done, failing the test if that takes two minutes: a
// slot never handed back leaves its waiters blocked for good.
func finish(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("blocked for two minutes: a machine slot was never handed back")
	}
}
