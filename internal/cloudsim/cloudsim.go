// Package cloudsim is the integration the paper's conclusion points at: the
// VMI-cache machinery wired into a cloud's control plane. It simulates an
// IaaS cloud over time — Poisson VM arrivals over a Zipf image mix,
// placement by the §3.4 cache-aware scheduler, cache location decided by
// §6's Algorithm 1 (local disk, storage memory, or cold creation), boot
// costs charged against the calibrated link and disk models of the
// evaluation harness — and reports the boot-time distribution the cloud's
// users would see.
//
// Where internal/cluster replays every block of one simultaneous boot
// storm, cloudsim works at whole-boot granularity over hours of simulated
// operation: per boot it charges the working-set transfer against the
// shared storage link (and the storage disk for cold misses), so boot
// storms still contend realistically.
package cloudsim

import (
	"fmt"
	"math/rand"
	"time"

	"vmicache/internal/boot"
	"vmicache/internal/core"
	"vmicache/internal/metrics"
	"vmicache/internal/sched"
	"vmicache/internal/sim"
	"vmicache/internal/simdisk"
	"vmicache/internal/simnet"
)

// Scheme selects how the cloud provisions VM disks.
type Scheme int

// Provisioning schemes.
const (
	// SchemeQCOW2 is the baseline: every boot reads its working set from
	// the storage node (disk + network).
	SchemeQCOW2 Scheme = iota

	// SchemeVMICache runs Algorithm 1 with per-node cache pools and a
	// storage-memory cache pool.
	SchemeVMICache
)

// String names the scheme.
func (s Scheme) String() string {
	if s == SchemeVMICache {
		return "vmi-cache"
	}
	return "qcow2"
}

// Params configures a cloud simulation.
type Params struct {
	Seed int64

	// Cluster shape.
	Nodes      int
	NodeCPU    int
	NodeMem    int64
	NodeCache  int64 // per-node cache pool budget (bytes)
	StorageMem int64 // storage-node cache pool budget (bytes)

	// Workload: Poisson arrivals at Rate VMs/second over a Zipf(S) mix
	// of VMIs, exponential lifetimes with the given mean, for Duration
	// of simulated time.
	Rate         float64
	VMIs         int
	ZipfS        float64
	MeanLifetime time.Duration
	Duration     time.Duration

	// VM sizing.
	VMCPU int
	VMMem int64

	// Scheme and scheduling.
	Scheme     Scheme
	Policy     sched.Policy
	CacheAware bool

	// Guest profile: supplies the working set each boot transfers and
	// the uncontended boot time (think + fast reads).
	Profile boot.Profile

	// Network of the storage link (defaults to 1 GbE).
	Network simnet.LinkParams
}

// Result summarises a simulation.
type Result struct {
	Params Params

	Arrived   int
	Completed int
	Rejected  int

	// Boot-time distribution (seconds) over completed boots.
	Boots metrics.Sample

	// Boot-path mix.
	WarmLocal  int
	WarmRemote int
	Cold       int

	// Cache economics.
	NodeEvictions    int
	StorageEvictions int
	StorageMemUsed   int64

	// Storage pressure.
	LinkUtilization float64
	DiskUtilization float64
}

// Run executes the simulation.
func Run(p Params) (*Result, error) {
	if p.Nodes <= 0 || p.Rate <= 0 || p.VMIs <= 0 || p.Duration <= 0 {
		return nil, fmt.Errorf("cloudsim: invalid params %+v", p)
	}
	if p.Network.Bandwidth == 0 {
		p.Network = simnet.GbE()
	}
	if p.ZipfS <= 1 {
		p.ZipfS = 1.2
	}

	eng := sim.New(p.Seed)
	link := simnet.NewLink(eng, p.Network)
	disk := simdisk.NewDisk(eng, "storage-disk", simdisk.DAS4StorageRAID())
	pageCache := simdisk.NewPageCache(200*p.Profile.UniqueReadBytes, 64<<10)

	s := sched.New(p.Policy, p.CacheAware)
	for i := 0; i < p.Nodes; i++ {
		s.AddNode(sched.NewNode(fmt.Sprintf("node-%02d", i), p.NodeCPU, p.NodeMem, p.NodeCache))
	}
	storagePool := core.NewPool(p.StorageMem)

	res := &Result{Params: p}
	ws := p.Profile.UniqueReadBytes
	cacheSize := ws + ws/10 // Table 2: working set + metadata
	thinkTime := time.Duration(float64(p.Profile.UncontendedBoot) * (1 - p.Profile.ReadWaitFraction))
	// Remote boots issue one synchronous request per guest read; their
	// serial per-request latency dominates slow networks. Count the
	// profile's reads once.
	var reqCount int64
	for _, op := range boot.Generate(p.Profile).Ops {
		if op.Kind == boot.Read {
			reqCount++
		}
	}
	perReqLat := time.Duration(reqCount) * p.Network.PerRequest

	rnd := eng.Rand()
	zipf := newZipf(eng, p.ZipfS, p.VMIs)

	// bootVM charges one boot and returns when the VM is "up".
	bootVM := func(proc *sim.Proc, node *sched.Node, vmi string) {
		switch {
		case p.Scheme == SchemeVMICache && node.CachePool().Lookup(vmi):
			// Algorithm 1 branch 1: local warm cache. Local reads
			// only; no shared resources.
			res.WarmLocal++
			proc.Sleep(p.Profile.UncontendedBoot)

		case p.Scheme == SchemeVMICache && storagePool.Lookup(vmi):
			// Branch 2: chain to the storage-memory cache: the
			// working set crosses the network request by request,
			// but no disk is involved.
			res.WarmRemote++
			link.Transfer(proc, ws)
			proc.Sleep(thinkTime + perReqLat)
			// The node keeps the new local cache for next time.
			ev, _ := node.CachePool().Add(vmi, cacheSize)
			res.NodeEvictions += len(ev)

		default:
			// Branch 3 (or plain QCOW2): cold boot from the base
			// image — page-cache/disk plus the network.
			res.Cold++
			hit, miss := pageCache.Touch("base-"+vmi, 0, ws)
			if miss > 0 {
				disk.ReadBatch(proc, miss, miss/(64<<10)+1, true)
			}
			_ = hit
			link.Transfer(proc, ws)
			proc.Sleep(thinkTime + perReqLat)
			if p.Scheme == SchemeVMICache {
				ev, _ := node.CachePool().Add(vmi, cacheSize)
				res.NodeEvictions += len(ev)
				// Copy the cache to storage memory on shutdown
				// per Algorithm 1; modelled here at boot end
				// (the transfer is off the user's critical
				// path, §5.1).
				evs, ok := storagePool.Add(vmi, cacheSize)
				if ok {
					res.StorageEvictions += len(evs)
				}
			}
		}
	}

	// Arrival process.
	vmSeq := 0
	var schedule func()
	schedule = func() {
		gap := time.Duration(rnd.ExpFloat64() / p.Rate * float64(time.Second))
		eng.At(gap, func() {
			if eng.Now() > p.Duration {
				return
			}
			vmSeq++
			id := fmt.Sprintf("vm-%d", vmSeq)
			vmi := fmt.Sprintf("vmi-%d", zipf())
			res.Arrived++
			dec, err := s.Schedule(sched.VMSpec{ID: id, VMI: vmi, CPU: p.VMCPU, Mem: p.VMMem})
			if err != nil {
				res.Rejected++
			} else {
				eng.Go(id, func(proc *sim.Proc) {
					start := proc.Now()
					bootVM(proc, dec.Node, vmi)
					res.Boots.Add((proc.Now() - start).Seconds())
					res.Completed++
					// Lifetime, then release.
					life := time.Duration(rnd.ExpFloat64() * float64(p.MeanLifetime))
					proc.Sleep(life)
					s.Release(id) //nolint:errcheck // id was placed above
				})
			}
			schedule()
		})
	}
	schedule()

	if err := eng.Run(); err != nil {
		return nil, err
	}
	res.StorageMemUsed = storagePool.Used()
	res.LinkUtilization = link.Queue().Utilization()
	res.DiskUtilization = disk.Queue().Utilization()
	return res, nil
}

// newZipf returns a deterministic Zipf sampler over [0, n) using the
// engine's RNG ("popular VMIs in public clouds", §2.1).
func newZipf(eng *sim.Engine, s float64, n int) func() uint64 {
	if n <= 1 {
		return func() uint64 { return 0 }
	}
	z := rand.NewZipf(eng.Rand(), s, 1, uint64(n-1))
	return z.Uint64
}
