package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

const gb = int64(1) << 30

func cluster(t *testing.T, n int, policy Policy, cacheAware bool) *Scheduler {
	t.Helper()
	s := New(policy, cacheAware)
	for i := 0; i < n; i++ {
		s.AddNode(NewNode(fmt.Sprintf("node-%02d", i), 8, 24*gb, 2*gb))
	}
	return s
}

func spec(id, vmi string) VMSpec {
	return VMSpec{ID: id, VMI: vmi, CPU: 1, Mem: gb}
}

func TestPackingStacksVMs(t *testing.T) {
	s := cluster(t, 4, Packing, false)
	var first *Node
	for i := 0; i < 8; i++ {
		d, err := s.Schedule(spec(fmt.Sprintf("vm%d", i), "img"))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = d.Node
		}
		if d.Node != first {
			t.Fatalf("packing spread to %s before filling %s", d.Node.ID, first.ID)
		}
	}
	if first.VMs() != 8 {
		t.Fatalf("first node holds %d VMs", first.VMs())
	}
	// Ninth VM must overflow to another node.
	d, err := s.Schedule(spec("vm8", "img"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Node == first {
		t.Fatal("packing overfilled a node")
	}
}

func TestStripingSpreadsVMs(t *testing.T) {
	s := cluster(t, 4, Striping, false)
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		d, err := s.Schedule(spec(fmt.Sprintf("vm%d", i), "img"))
		if err != nil {
			t.Fatal(err)
		}
		counts[d.Node.ID]++
	}
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("striping unbalanced: %s has %d", id, c)
		}
	}
}

func TestLoadAwarePicksLeastLoaded(t *testing.T) {
	s := cluster(t, 3, LoadAware, false)
	for i, cpu := range []int{7, 4, 1} { // loads 0.875, 0.5, 0.125 of 8 CPUs
		s.Nodes()[i].usedCPU = cpu
	}
	d, err := s.Schedule(spec("vm0", "img"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Node.ID != "node-02" {
		t.Fatalf("load-aware picked %s", d.Node.ID)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	s := New(Packing, false)
	s.AddNode(NewNode("n", 1, gb, 0))
	if _, err := s.Schedule(spec("a", "img")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Schedule(spec("b", "img"))
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(spec("b", "img")); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	s := cluster(t, 1, Packing, false)
	if _, err := s.Schedule(spec("a", "img")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(spec("a", "img")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup err = %v", err)
	}
	if err := s.Release("ghost"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown err = %v", err)
	}
}

func TestCacheAwarePrefersWarmNodes(t *testing.T) {
	s := cluster(t, 4, Striping, true)
	warmNode := s.Nodes()[3]
	s.RecordWarmCache(warmNode, "centos", 100<<20)

	// Striping alone would pick an empty low-ID node; cache-awareness
	// must override toward node-03.
	d, err := s.Schedule(spec("vm0", "centos"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != warmNode || !d.WarmCache {
		t.Fatalf("placed on %s (warm=%v)", d.Node.ID, d.WarmCache)
	}
	// A different image has no warm node: falls back to the base policy.
	d2, err := s.Schedule(spec("vm1", "debian"))
	if err != nil {
		t.Fatal(err)
	}
	if d2.WarmCache {
		t.Fatal("warm placement without a cache")
	}
	if s.WarmRatio() != 0.5 { // one warm and one cold placement
		t.Fatalf("ratio = %v", s.WarmRatio())
	}
}

func TestCacheAwareRespectsCapacity(t *testing.T) {
	s := New(Packing, true)
	tiny := NewNode("tiny", 1, gb, gb)
	big := NewNode("big", 8, 24*gb, gb)
	s.AddNode(tiny)
	s.AddNode(big)
	s.RecordWarmCache(tiny, "centos", 100<<20)
	if _, err := s.Schedule(spec("a", "centos")); err != nil {
		t.Fatal(err)
	}
	// tiny is now full; the warm preference must not override capacity.
	d, err := s.Schedule(spec("b", "centos"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != big || d.WarmCache {
		t.Fatalf("placed on %s warm=%v", d.Node.ID, d.WarmCache)
	}
}

func TestNodeCacheLRUEviction(t *testing.T) {
	s := cluster(t, 1, Packing, true)
	n := s.Nodes()[0]
	ev := s.RecordWarmCache(n, "a", gb)
	if len(ev) != 0 {
		t.Fatalf("evicted %v", ev)
	}
	s.RecordWarmCache(n, "b", gb)
	ev = s.RecordWarmCache(n, "c", gb) // budget 2 GB: evicts "a"
	if len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("evicted %v", ev)
	}
	if n.HasWarmCache("a") || !n.HasWarmCache("b") || !n.HasWarmCache("c") {
		t.Fatal("LRU state wrong")
	}
}

func TestSimulateCacheAwareBeatsOblivious(t *testing.T) {
	params := WorkloadParams{
		Seed:         11,
		Arrivals:     2000,
		VMIs:         20,
		ZipfS:        1.4,
		MeanLifetime: 40,
		CPU:          1,
		Mem:          gb,
		WarmBoot:     35 * time.Second,
		ColdBoot:     140 * time.Second,
		CacheSize:    100 << 20,
	}
	aware := cluster(t, 16, Striping, true)
	oblivious := cluster(t, 16, Striping, false)
	ra, err := Simulate(aware, params)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Simulate(oblivious, params)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Placed == 0 || ro.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if ra.WarmRatio <= ro.WarmRatio {
		t.Fatalf("cache-aware warm ratio %.2f <= oblivious %.2f", ra.WarmRatio, ro.WarmRatio)
	}
	if ra.MeanBoot >= ro.MeanBoot {
		t.Fatalf("cache-aware boot %v >= oblivious %v", ra.MeanBoot, ro.MeanBoot)
	}
	// With a skewed image mix, awareness should reach a solid hit rate.
	if ra.WarmRatio < 0.5 {
		t.Fatalf("cache-aware warm ratio only %.2f", ra.WarmRatio)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	params := WorkloadParams{
		Seed: 3, Arrivals: 500, VMIs: 10, ZipfS: 1.2, MeanLifetime: 20,
		CPU: 1, Mem: gb, WarmBoot: time.Second, ColdBoot: 4 * time.Second,
		CacheSize: 64 << 20,
	}
	a, err := Simulate(cluster(t, 8, LoadAware, true), params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cluster(t, 8, LoadAware, true), params)
	if err != nil {
		t.Fatal(err)
	}
	if a.WarmRatio != b.WarmRatio || a.TotalBoot != b.TotalBoot || a.Placed != b.Placed {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(cluster(t, 1, Packing, true), WorkloadParams{}); err == nil {
		t.Fatal("accepted empty workload")
	}
}

func TestPolicyString(t *testing.T) {
	if Packing.String() != "packing" || Striping.String() != "striping" || LoadAware.String() != "load-aware" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy name")
	}
}
