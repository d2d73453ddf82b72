package vmicache

import (
	"bytes"
	"testing"

	"vmicache/internal/backend"
)

// The facade's end-to-end path: §4.4 workflow through the public API only.
func TestFacadeWorkflow(t *testing.T) {
	const size = 4 << 20
	ns := NewNamespace("nfs", NewMemStore())
	ns.Register("node0", NewMemStore())

	src := PatternSource{Seed: 1, N: size}
	if err := CreateBase(ns, Loc("nfs:centos.img"), size, 0, src); err != nil {
		t.Fatal(err)
	}
	quota := MinCacheQuota(size, CacheClusterBits) + size/2
	if err := CreateCache(ns, Loc("node0:centos.cache"), Loc("nfs:centos.img"), size, quota, 0); err != nil {
		t.Fatal(err)
	}
	if err := CreateCoW(ns, Loc("node0:vm0.cow"), Loc("node0:centos.cache"), size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(ns, Loc("node0:vm0.cow"), ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	if _, err := Warm(c, []Span{{Off: 0, Len: 256 << 10}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := backend.ReadFull(c, buf, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, src.At(1000, 4096)) {
		t.Fatal("facade chain content mismatch")
	}
	if c.CacheImage() == nil || c.CacheImage().Stats().CacheFillOps.Load() == 0 {
		t.Fatal("cache did not warm through the facade")
	}
}

func TestFacadeBootReplay(t *testing.T) {
	const size = 8 << 20
	ns := NewNamespace("nfs", NewMemStore())
	src := PatternSource{Seed: 2, N: size}
	if err := CreateBase(ns, Loc("nfs:img"), size, 0, src); err != nil {
		t.Fatal(err)
	}
	if err := CreateCoW(ns, Loc("nfs:vm.cow"), Loc("nfs:img"), size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(ns, Loc("nfs:vm.cow"), ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	prof := Debian.Scale(0.01)
	prof.ImageSize = size
	w := GenerateBoot(prof)
	res, err := ReplayBoot(w, c, ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadBytes != w.TotalReadBytes() {
		t.Fatalf("replay read %d, want %d", res.ReadBytes, w.TotalReadBytes())
	}
}

func TestFacadeExperiment(t *testing.T) {
	r, err := RunExperiment(ExperimentParams{
		Seed:    1,
		Network: NetGbE,
		Nodes:   4,
		VMIs:    1,
		Mode:    ModeWarmCache,
		Profile: CentOS.Scale(0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BootTimes) != 4 || r.MeanBoot <= 0 {
		t.Fatalf("experiment result: %+v", r)
	}
}

func TestFacadeScheduler(t *testing.T) {
	s := NewScheduler(Striping, true)
	s.AddNode(NewSchedulerNode("n0", 4, 8<<30, 1<<30))
	s.AddNode(NewSchedulerNode("n1", 4, 8<<30, 1<<30))
	s.RecordWarmCache(s.Nodes()[1], "centos", 100<<20)
	d, err := s.Schedule(VMSpec{ID: "vm0", VMI: "centos", CPU: 1, Mem: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !d.WarmCache || d.Node.ID != "n1" {
		t.Fatalf("decision: %+v", d)
	}
}

func TestFacadeRecommendation(t *testing.T) {
	if RecommendPlacement(true).Placement != "storage-memory" {
		t.Fatal("fast-network recommendation")
	}
}

func TestFacadeTransferAndPool(t *testing.T) {
	const size = 2 << 20
	ns := NewNamespace("nfs", NewMemStore())
	mem := NewMemStore()
	ns.Register("smem", mem)
	if err := CreateBase(ns, Loc("nfs:b.img"), size, 0, PatternSource{Seed: 4, N: size}); err != nil {
		t.Fatal(err)
	}
	if err := CreateCache(ns, Loc("nfs:b.cache"), Loc("nfs:b.img"), size, size, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(ns, Loc("nfs:b.cache"), ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Warm(c, []Span{{Off: 0, Len: 128 << 10}}); err != nil {
		t.Fatal(err)
	}
	spans, err := Disclosure(c.Top())
	if err != nil || len(spans) == 0 {
		t.Fatalf("disclosure: %v (%d spans)", err, len(spans))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	moved, err := TransferCache(ns, Loc("smem:b.cache"), Loc("nfs:b.cache"))
	if err != nil || moved == 0 {
		t.Fatalf("transfer: %d %v", moved, err)
	}
	pool := NewPool(1 << 20)
	if _, ok := pool.Add("b.cache", moved); !ok {
		t.Fatal("pool add")
	}
	if !pool.Lookup("b.cache") {
		t.Fatal("pool lookup")
	}
	if MinCacheQuota(size, CacheClusterBits) <= 0 {
		t.Fatal("MinCacheQuota")
	}
}

func TestFacadeCloudAndExtensions(t *testing.T) {
	r, err := RunCloud(CloudParams{
		Seed: 2, Nodes: 4, NodeCPU: 8, NodeMem: 24 << 30, NodeCache: 1 << 30,
		StorageMem: 8 << 30, Rate: 1, VMIs: 8, ZipfS: 1.2,
		MeanLifetime: 30 * 1e9, Duration: 120 * 1e9, VMCPU: 1, VMMem: 1 << 30,
		Scheme: SchemeVMICache, Policy: Striping, CacheAware: true,
		Profile: CentOS.Scale(0.01),
	})
	if err != nil || r.Completed == 0 {
		t.Fatalf("cloud: %v %+v", err, r)
	}
	if fig := ExperimentTable1(0.01); len(fig.Rows) != 3 {
		t.Fatal("table1 driver")
	}
}
