package simnet

import (
	"fmt"
	"testing"
	"time"

	"vmicache/internal/sim"
)

func TestSingleTransferTiming(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkParams{
		Name: "test", Bandwidth: 100 << 20, Efficiency: 0.5,
		PerRequest: time.Millisecond, MaxSegment: 64 << 10, SegmentOverhead: 10 * time.Microsecond,
	})
	var elapsed time.Duration
	eng.Go("x", func(p *sim.Proc) {
		elapsed = l.Transfer(p, 64<<10)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 64 KiB at 50 MB/s = 1.25 ms + 10 us overhead + 1 ms latency.
	want := 1250*time.Microsecond + 10*time.Microsecond + time.Millisecond
	if d := elapsed - want; d < -10*time.Microsecond || d > 10*time.Microsecond {
		t.Fatalf("transfer = %v, want ~%v", elapsed, want)
	}
	if l.Bytes != 64<<10 || l.Requests != 1 {
		t.Fatalf("counters: %d %d", l.Bytes, l.Requests)
	}
}

func TestSegmentationOverhead(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, LinkParams{
		Name: "t", Bandwidth: 1 << 40, Efficiency: 1,
		MaxSegment: 64 << 10, SegmentOverhead: time.Millisecond,
	})
	var elapsed time.Duration
	eng.Go("x", func(p *sim.Proc) {
		elapsed = l.Transfer(p, 256<<10) // 4 segments
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 4*time.Millisecond || elapsed > 4*time.Millisecond+100*time.Microsecond {
		t.Fatalf("4-segment transfer = %v", elapsed)
	}
}

func TestSharedPipeSaturates(t *testing.T) {
	// N concurrent transfers serialize on the shared queue; latency
	// overlaps. This is the Fig. 2 mechanism.
	const n = 8
	eng := sim.New(1)
	l := NewLink(eng, LinkParams{
		Name: "t", Bandwidth: 100 << 20, Efficiency: 1, PerRequest: time.Millisecond,
	})
	var last time.Duration
	for i := 0; i < n; i++ {
		eng.Go(fmt.Sprintf("n%d", i), func(p *sim.Proc) {
			l.Transfer(p, 10<<20)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 80 MB at 100 MB/s = 800 ms serialization + 1 ms latency.
	want := 800*time.Millisecond + time.Millisecond
	if d := last - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("makespan = %v, want ~%v", last, want)
	}
	if u := l.Queue().Utilization(); u < 0.95 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestLatencyOverlapsAcrossNodes(t *testing.T) {
	// With tiny payloads the shared queue is nearly idle; concurrent
	// requesters finish at ~the same time because PerRequest is not
	// shared.
	const n = 16
	eng := sim.New(1)
	l := NewLink(eng, LinkParams{
		Name: "t", Bandwidth: 1 << 40, Efficiency: 1, PerRequest: 10 * time.Millisecond,
	})
	var last time.Duration
	for i := 0; i < n; i++ {
		eng.Go(fmt.Sprintf("n%d", i), func(p *sim.Proc) {
			l.Transfer(p, 512)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if last > 11*time.Millisecond {
		t.Fatalf("latency did not overlap: makespan %v", last)
	}
}

func TestPresetSanity(t *testing.T) {
	g, ib := GbE(), IB()
	if g.Bandwidth >= ib.Bandwidth {
		t.Fatal("GbE faster than IB")
	}
	if g.PerRequest <= ib.PerRequest {
		t.Fatal("GbE request cheaper than IB")
	}
	// A single CentOS-style boot stream (~1400 reads of ~24 KiB in ~30 s
	// of think time) must NOT saturate either link alone...
	gGoodput := float64(g.Bandwidth) * g.Efficiency
	demand := 1400.0 * 24 * 1024 / 30.0
	if demand > gGoodput {
		t.Fatal("single boot saturates GbE: calibration broken")
	}
	// ...but 64 concurrent CentOS boots must saturate GbE and not IB
	// (the Fig. 2 crossover).
	if 64*demand < gGoodput {
		t.Fatal("64 boots do not saturate GbE: calibration broken")
	}
	ibGoodput := float64(ib.Bandwidth) * ib.Efficiency
	if 64*demand > ibGoodput {
		t.Fatal("64 boots saturate IB: calibration broken")
	}
}
