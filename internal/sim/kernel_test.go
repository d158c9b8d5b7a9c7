package sim

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	k := new(Kernel[func()])
	var order []int
	k.Schedule(10, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 3) })
	if err := k.Run(100, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	k := new(Kernel[func()])
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(7, func() { order = append(order, i) })
	}
	if err := k.Run(10, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	k := new(Kernel[func()])
	var at uint64
	k.Schedule(42, func() { at = k.Now() })
	if err := k.Run(100, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 42 {
		t.Errorf("Now inside event = %d, want 42", at)
	}
	if k.Now() != 100 {
		t.Errorf("Now after Run = %d, want horizon 100", k.Now())
	}
}

func TestHorizonLeavesFutureEvents(t *testing.T) {
	k := new(Kernel[func()])
	fired := false
	k.Schedule(50, func() { fired = true })
	if err := k.Run(49, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("event past horizon fired")
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	if err := k.Run(50, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event at horizon should fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := new(Kernel[func()])
	var hits []uint64
	k.Schedule(1, func() {
		hits = append(hits, k.Now())
		k.Schedule(2, func() { hits = append(hits, k.Now()) })
	})
	if err := k.Run(10, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v, want [1 3]", hits)
	}
}

func TestStop(t *testing.T) {
	k := new(Kernel[func()])
	count := 0
	k.Schedule(1, func() { count++; k.Stop() })
	k.Schedule(2, func() { count++ })
	if err := k.Run(10, call); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1 (second event must not fire)", count)
	}
}

func TestScheduleAtPastCoerced(t *testing.T) {
	k := new(Kernel[func()])
	var at uint64 = 999
	k.Schedule(10, func() {
		k.ScheduleAt(3, func() { at = k.Now() }) // in the past: coerced to now
	})
	if err := k.Run(20, call); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 10 {
		t.Errorf("past-scheduled event fired at %d, want 10", at)
	}
}

func TestDrain(t *testing.T) {
	k := new(Kernel[func()])
	count := 0
	k.Schedule(1_000_000, func() { count++ })
	k.Schedule(2_000_000, func() { count++ })
	if err := k.Drain(call); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
	if k.Now() != 2_000_000 {
		t.Errorf("Now = %d, want 2000000", k.Now())
	}
}

// Property: whatever the schedule, events fire in (cycle, scheduling
// order) order, each at its own cycle. Each trial interleaves Schedule and
// ScheduleAt (past cycles coerce to now), schedules from inside firing
// events, runs to several horizons that leave events pending, and drains
// the rest; the fired stamps must equal every scheduled stamp, sorted.
func TestRunOrderProperty(t *testing.T) {
	type stamp struct{ at, seq uint64 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := new(Kernel[func()])
		var scheduled, fired []stamp
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			st := stamp{seq: uint64(len(scheduled))}
			fn := func() {
				if k.Now() != st.at {
					ok = false
				}
				fired = append(fired, st)
				for depth < 2 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			}
			if rng.Intn(2) == 0 {
				delay := uint64(rng.Intn(20))
				st.at = k.Now() + delay
				k.Schedule(delay, fn)
			} else {
				cycle := k.Now() + uint64(rng.Intn(30))
				cycle -= min(cycle, 10) // up to 10 cycles in the past
				st.at = max(cycle, k.Now())
				k.ScheduleAt(cycle, fn)
			}
			scheduled = append(scheduled, st)
		}
		for round := 0; round < 5; round++ {
			for i := rng.Intn(15); i > 0; i-- {
				schedule(0)
			}
			if err := k.Run(k.Now()+uint64(rng.Intn(15)), call); err != nil {
				return false
			}
		}
		if err := k.Drain(call); err != nil || k.Pending() != 0 {
			return false
		}
		want := slices.Clone(scheduled)
		slices.SortFunc(want, func(a, b stamp) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		return ok && slices.Equal(fired, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleRunAllocatesNothing pins the value-typed event heap: once
// the queue has grown, scheduling a record and firing it allocates
// nothing.
func TestScheduleRunAllocatesNothing(t *testing.T) {
	type record struct {
		kind uint8
		addr uint64
	}
	k := new(Kernel[record])
	var sum uint64
	fire := func(r record) { sum += r.addr }
	for i := 0; i < 8; i++ {
		k.Schedule(uint64(i), record{addr: uint64(i)})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(8, record{kind: 1, addr: 8})
		if err := k.Run(k.Now()+1, fire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Schedule+Run allocates %v times per event, want 0", allocs)
	}
	if sum == 0 {
		t.Error("no record fired")
	}
}

// call fires a callback event: the tests above schedule closures.
func call(fn func()) { fn() }
