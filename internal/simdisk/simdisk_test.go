package simdisk

import (
	"fmt"
	"testing"
	"time"

	"vmicache/internal/sim"
)

func TestDiskRandomVsSequential(t *testing.T) {
	eng := sim.New(1)
	d := NewDisk(eng, "disk", DiskParams{
		SeekTime: 10 * time.Millisecond, Throughput: 100 << 20, SeqSeekFraction: 0.1,
	})
	var tRand, tSeq time.Duration
	eng.Go("rand", func(p *sim.Proc) {
		d.Read(p, 64<<10, true)
		tRand = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng2 := sim.New(1)
	d2 := NewDisk(eng2, "disk", DiskParams{
		SeekTime: 10 * time.Millisecond, Throughput: 100 << 20, SeqSeekFraction: 0.1,
	})
	eng2.Go("seq", func(p *sim.Proc) {
		d2.Read(p, 64<<10, false)
		tSeq = p.Now()
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if tRand <= tSeq {
		t.Fatalf("random (%v) not slower than sequential (%v)", tRand, tSeq)
	}
	// Random: 10ms seek + 0.625ms transfer.
	want := 10*time.Millisecond + 625*time.Microsecond
	if diff := tRand - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("random read = %v, want %v", tRand, want)
	}
}

func TestDiskQueueingSerializes(t *testing.T) {
	eng := sim.New(1)
	d := NewDisk(eng, "disk", DAS4StorageRAID())
	var last time.Duration
	const jobs = 10
	for i := 0; i < jobs; i++ {
		eng.Go(fmt.Sprintf("j%d", i), func(p *sim.Proc) {
			d.Read(p, 64<<10, true)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 random 64 KiB reads must serialize at seek+transfer each.
	xfer := float64(64<<10) / float64(220<<20) * float64(time.Second)
	per := DAS4StorageRAID().SeekTime + time.Duration(xfer)
	want := time.Duration(jobs) * per
	if last < want-time.Millisecond || last > want+time.Millisecond {
		t.Fatalf("makespan = %v, want ~%v", last, want)
	}
	if d.ReadOps != jobs || d.ReadBytes != jobs*64<<10 {
		t.Fatalf("counters: ops=%d bytes=%d", d.ReadOps, d.ReadBytes)
	}
}

func TestDiskSyncVsAsyncWrites(t *testing.T) {
	eng := sim.New(1)
	d := NewDisk(eng, "disk", DAS4ComputeDisk())
	var tSync, tAsync time.Duration
	eng.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		d.Write(p, 4096, true)
		tSync = p.Now() - t0
		t0 = p.Now()
		d.Write(p, 4096, false)
		tAsync = p.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tSync < 7*time.Millisecond {
		t.Fatalf("sync write too fast: %v", tSync)
	}
	if tAsync > time.Millisecond {
		t.Fatalf("async write too slow: %v", tAsync)
	}
	if d.WriteOps != 2 {
		t.Fatalf("write ops = %d", d.WriteOps)
	}
}

func TestMemAccessFast(t *testing.T) {
	eng := sim.New(1)
	m := NewMem(eng, "tmpfs", DAS4Memory())
	var elapsed time.Duration
	eng.Go("r", func(p *sim.Proc) {
		m.Access(p, 64<<10)
		elapsed = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed > 100*time.Microsecond {
		t.Fatalf("memory access = %v, implausibly slow", elapsed)
	}
	if m.Ops != 1 || m.Bytes != 64<<10 {
		t.Fatalf("counters: %d %d", m.Ops, m.Bytes)
	}
}

func TestPageCacheHitMissAccounting(t *testing.T) {
	c := NewPageCache(1<<20, 64<<10) // 16 pages
	hit, miss := c.Touch("f", 0, 128<<10)
	if hit != 0 || miss != 128<<10 {
		t.Fatalf("cold touch: hit=%d miss=%d", hit, miss)
	}
	hit, miss = c.Touch("f", 0, 128<<10)
	if hit != 128<<10 || miss != 0 {
		t.Fatalf("warm touch: hit=%d miss=%d", hit, miss)
	}
	// Partial page overlap: bytes split exactly.
	hit, miss = c.Touch("f", 128<<10-100, 200)
	if hit != 100 || miss != 100 {
		t.Fatalf("boundary touch: hit=%d miss=%d", hit, miss)
	}
	if c.HitBytes != 128<<10+100 || c.MissBytes != 128<<10+100 {
		t.Fatalf("cumulative: hit=%d miss=%d", c.HitBytes, c.MissBytes)
	}
}

func TestPageCacheDistinctFiles(t *testing.T) {
	c := NewPageCache(1<<20, 64<<10)
	c.Touch("a", 0, 64<<10)
	if hit, _ := c.Touch("b", 0, 64<<10); hit != 0 {
		t.Fatal("pages leaked across files")
	}
	if !resident(c, "a", 0) || !resident(c, "b", 100) || resident(c, "c", 0) {
		t.Fatal("residency wrong")
	}
}

func TestPageCacheLRUEviction(t *testing.T) {
	c := NewPageCache(4*64<<10, 64<<10) // 4 pages
	for i := int64(0); i < 4; i++ {
		c.Touch("f", i*64<<10, 64<<10)
	}
	c.Touch("f", 0, 64<<10)        // page 0 -> MRU
	c.Touch("f", 4*64<<10, 64<<10) // evicts page 1 (LRU)
	if !resident(c, "f", 0) {
		t.Fatal("MRU page evicted")
	}
	if resident(c, "f", 64<<10) {
		t.Fatal("LRU page survived")
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPageCacheZeroLength(t *testing.T) {
	c := NewPageCache(1<<20, 64<<10)
	if hit, miss := c.Touch("f", 100, 0); hit != 0 || miss != 0 {
		t.Fatal("zero-length touch")
	}
}

// resident reports whether the page holding off is cached, without an LRU
// touch.
func resident(c *PageCache, file string, off int64) bool {
	_, ok := c.pages[pageKey{file, off / c.pageSize}]
	return ok
}
