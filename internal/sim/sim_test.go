package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time ordering violated: %v", order)
		}
	}
}

func TestProcSleepAdvancesVirtualTimeOnly(t *testing.T) {
	e := New(1)
	var at []time.Duration
	e.Go("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(time.Hour)
		at = append(at, p.Now())
		p.Sleep(30 * time.Minute)
		at = append(at, p.Now())
	})
	start := time.Now()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual sleep took real time: %v", wall)
	}
	if at[0] != 0 || at[1] != time.Hour || at[2] != time.Hour+30*time.Minute {
		t.Fatalf("timestamps = %v", at)
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := New(7)
		var log []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			e.Go(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(len(n)) * 10 * time.Millisecond)
					log = append(log, n)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 9 {
		t.Fatalf("log length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !errors.Is(err, err) || err.Error() == "" {
		t.Fatalf("err = %v", err)
	}
}

func TestFIFOQueueing(t *testing.T) {
	e := New(1)
	q := NewFIFO(e, "disk")
	var done []time.Duration
	var waits []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("job", func(p *Proc) {
			w := q.Use(p, 10*time.Millisecond)
			waits = append(waits, w)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d = %v, want %v", i, done[i], want[i])
		}
	}
	if waits[0] != 0 || waits[1] != 10*time.Millisecond || waits[2] != 20*time.Millisecond {
		t.Fatalf("waits = %v", waits)
	}
	if u := q.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestFIFOIdleGapsLowerUtilization(t *testing.T) {
	e := New(1)
	q := NewFIFO(e, "disk")
	e.Go("late", func(p *Proc) {
		p.Sleep(90 * time.Millisecond)
		q.Use(p, 10*time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := q.Utilization(); u < 0.09 || u > 0.11 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("engine RNG not deterministic")
		}
	}
}
