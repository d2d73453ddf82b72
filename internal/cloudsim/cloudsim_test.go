package cloudsim

import (
	"testing"
	"time"

	"vmicache/internal/boot"
	"vmicache/internal/sched"
)

// testParams returns a modest cloud: 16 nodes, steady arrivals over a
// skewed image mix, scaled CentOS boots.
func testParams(scheme Scheme, aware bool) Params {
	return Params{
		Seed:         99,
		Nodes:        16,
		NodeCPU:      8,
		NodeMem:      24 << 30,
		NodeCache:    400 << 20, // ~4 caches per node: placement matters
		StorageMem:   16 << 30,
		Rate:         0.5, // one VM every 2s on average
		VMIs:         24,
		ZipfS:        1.3,
		MeanLifetime: 5 * time.Minute,
		Duration:     time.Hour,
		VMCPU:        1,
		VMMem:        2 << 30,
		Scheme:       scheme,
		Policy:       sched.Striping,
		CacheAware:   aware,
		Profile:      boot.CentOS,
	}
}

func TestCloudRunsAndAccounts(t *testing.T) {
	r, err := Run(testParams(SchemeVMICache, true))
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived < 1000 {
		t.Fatalf("arrived = %d, expected ~1800 over an hour at 0.5/s", r.Arrived)
	}
	if r.Completed+r.Rejected != r.Arrived {
		t.Fatalf("accounting: %d completed + %d rejected != %d arrived",
			r.Completed, r.Rejected, r.Arrived)
	}
	if r.WarmLocal+r.WarmRemote+r.Cold != r.Completed {
		t.Fatalf("boot-path mix does not sum: %d+%d+%d != %d",
			r.WarmLocal, r.WarmRemote, r.Cold, r.Completed)
	}
	if r.Boots.Mean() <= 0 {
		t.Fatalf("mean boot = %v over %d completed boots", r.Boots.Mean(), r.Completed)
	}
	if r.StorageMemUsed <= 0 || r.StorageMemUsed > 16<<30 {
		t.Fatalf("storage mem used = %d", r.StorageMemUsed)
	}
}

func TestCloudDeterminism(t *testing.T) {
	a, err := Run(testParams(SchemeVMICache, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testParams(SchemeVMICache, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Boots.Mean() != b.Boots.Mean() ||
		a.WarmLocal != b.WarmLocal || a.Cold != b.Cold {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCloudCachesBeatQCOW2(t *testing.T) {
	q, err := Run(testParams(SchemeQCOW2, false))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(testParams(SchemeVMICache, true))
	if err != nil {
		t.Fatal(err)
	}
	// With a skewed mix and steady churn, nearly every boot finds a warm
	// cache somewhere; mean boot time must drop markedly.
	if c.Boots.Mean() >= q.Boots.Mean() {
		t.Fatalf("caches did not help: %.1fs vs %.1fs", c.Boots.Mean(), q.Boots.Mean())
	}
	warmRatio := float64(c.WarmLocal+c.WarmRemote) / float64(c.Completed)
	if warmRatio < 0.8 {
		t.Fatalf("warm ratio only %.2f", warmRatio)
	}
	// QCOW2 is all cold.
	if q.WarmLocal+q.WarmRemote != 0 {
		t.Fatal("QCOW2 scheme produced warm boots")
	}
	// Tail latency improves at least as much as the mean.
	if c.Boots.Quantile(0.95) >= q.Boots.Quantile(0.95) {
		t.Fatalf("p95 did not improve: %.1f vs %.1f",
			c.Boots.Quantile(0.95), q.Boots.Quantile(0.95))
	}
}

func TestCloudCacheAwareBeatsOblivious(t *testing.T) {
	obl, err := Run(testParams(SchemeVMICache, false))
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Run(testParams(SchemeVMICache, true))
	if err != nil {
		t.Fatal(err)
	}
	// Cache-awareness steers repeats onto nodes with local caches: more
	// local (free) boots.
	lo := float64(obl.WarmLocal) / float64(obl.Completed)
	la := float64(aware.WarmLocal) / float64(aware.Completed)
	if la <= lo {
		t.Fatalf("cache-aware local ratio %.2f <= oblivious %.2f", la, lo)
	}
	if aware.Boots.Mean() > obl.Boots.Mean() {
		t.Fatalf("cache-aware mean boot %.1fs worse than oblivious %.1fs",
			aware.Boots.Mean(), obl.Boots.Mean())
	}
}

func TestCloudBootStormContention(t *testing.T) {
	// Crank the arrival rate: QCOW2 boots queue on the shared link and
	// the boot-time tail explodes; the cache scheme absorbs the storm.
	storm := func(scheme Scheme) *Result {
		p := testParams(scheme, true)
		p.Rate = 4 // a VM every 250 ms
		p.Duration = 45 * time.Minute
		p.Nodes = 64
		p.MeanLifetime = time.Minute
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	q := storm(SchemeQCOW2)
	c := storm(SchemeVMICache)
	if q.LinkUtilization < 0.5 {
		t.Fatalf("storm did not stress the link: %v", q.LinkUtilization)
	}
	// Once caches exist, most boots are node-local and free: the median
	// separates dramatically and the cloud completes far more VMs. The
	// p95 separates less — warm-REMOTE boots still queue on the
	// saturated link, which is precisely why §6 recommends caches on
	// compute nodes when the network is the bottleneck.
	if c.Boots.Median() >= q.Boots.Median()/3 {
		t.Fatalf("cache scheme median %.1fs not clearly better than QCOW2 %.1fs",
			c.Boots.Median(), q.Boots.Median())
	}
	if c.Completed*2 < q.Completed*3 { // ≥1.5x throughput
		t.Fatalf("cache scheme completed %d, QCOW2 %d: throughput gain missing",
			c.Completed, q.Completed)
	}
	if c.Boots.Quantile(0.95) > q.Boots.Quantile(0.95) {
		t.Fatalf("cache scheme p95 %.1fs worse than QCOW2 %.1fs",
			c.Boots.Quantile(0.95), q.Boots.Quantile(0.95))
	}
}

func TestCloudValidation(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Fatal("accepted empty params")
	}
	p := testParams(SchemeQCOW2, false)
	p.Rate = 0
	if _, err := Run(p); err == nil {
		t.Fatal("accepted zero rate")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeQCOW2.String() != "qcow2" || SchemeVMICache.String() != "vmi-cache" {
		t.Fatal("scheme names")
	}
}
