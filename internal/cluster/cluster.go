// Package cluster is the evaluation harness: it reproduces the DAS-4/VU
// testbed of §5 as a discrete-event simulation in which every booting VM
// drives a *real* image chain (internal/qcow) while its I/O is charged
// against calibrated models of the storage node's disks and page cache, the
// two interconnects, and the compute nodes' local disks.
//
// One storage node exports base images over an NFS-like remote-read path;
// up to 64 compute nodes boot VMs simultaneously from a configurable chain:
// plain copy-on-write (the paper's QCOW2 baseline), or with a VMI cache that
// is cold or warm and placed on the compute node's disk, the compute node's
// memory, or the storage node's memory.
package cluster

import (
	"fmt"
	"time"

	"vmicache/internal/boot"
	"vmicache/internal/qcow"
	"vmicache/internal/sim"
	"vmicache/internal/simnet"
)

// Network selects the interconnect model.
type Network int

// Networks of the DAS-4 evaluation.
const (
	NetGbE Network = iota // commodity 1 Gb Ethernet
	NetIB                 // 32 Gb QDR InfiniBand
)

// String names the network as the figures label it.
func (n Network) String() string {
	if n == NetIB {
		return "32GbIB"
	}
	return "1GbE"
}

// Mode selects the deployment scheme under test.
type Mode int

// Deployment modes.
const (
	// ModeQCOW2 is the state-of-the-art baseline: CoW image on the
	// compute node, reads on demand from the remote base (§2).
	ModeQCOW2 Mode = iota

	// ModeColdCache adds a VMI cache that starts empty and warms itself
	// by copy-on-read during the measured boot.
	ModeColdCache

	// ModeWarmCache adds a VMI cache pre-populated with the boot working
	// set (a previous boot created it).
	ModeWarmCache
)

// String names the mode as the figures label it.
func (m Mode) String() string {
	switch m {
	case ModeColdCache:
		return "Cold cache"
	case ModeWarmCache:
		return "Warm cache"
	default:
		return "QCOW2"
	}
}

// Placement selects where cache images live.
type Placement int

// Cache placements (§3.3, §6).
const (
	// PlaceComputeDisk stores caches on each compute node's local disk
	// (Fig. 7, Fig. 11, Fig. 12).
	PlaceComputeDisk Placement = iota

	// PlaceComputeMem keeps the (cold) cache in the compute node's
	// memory; the final arrangement of §5.1 creates caches there to
	// avoid slow synchronous writes.
	PlaceComputeMem

	// PlaceStorageMem keeps warm caches in the storage node's memory;
	// cold caches are created in compute-node memory and transferred
	// back after boot (Fig. 13, Fig. 14).
	PlaceStorageMem
)

// String names the placement.
func (pl Placement) String() string {
	switch pl {
	case PlaceComputeMem:
		return "compute-mem"
	case PlaceStorageMem:
		return "storage-mem"
	default:
		return "compute-disk"
	}
}

// Params configures one experiment run.
type Params struct {
	// Seed drives all deterministic randomness.
	Seed int64

	// Network selects 1 GbE or 32 Gb IB.
	Network Network

	// Nodes is the number of simultaneously booting compute nodes.
	Nodes int

	// VMIs is the number of distinct base images; node i boots VMI
	// i % VMIs. 1 reproduces the single-VMI scenario (§2.1), Nodes
	// reproduces fully independent images (§2.2).
	VMIs int

	// Mode, Placement select the deployment scheme.
	Mode      Mode
	Placement Placement

	// ColdOnDisk places cold-cache writes on the compute node's disk
	// synchronously (the slow arrangement Fig. 8 measures) instead of
	// the default in-memory creation.
	ColdOnDisk bool

	// CacheQuota bounds each cache image; 0 picks 1.5x the working set.
	CacheQuota int64

	// CacheClusterBits sets the cache images' cluster size (default 9 =
	// 512 B, the choice §5.1 arrives at; 16 = 64 KiB reproduces the
	// amplification of Fig. 9).
	CacheClusterBits int

	// CowClusterBits sets the CoW images' cluster size (default 16).
	CowClusterBits int

	// WarmFraction, in warm-cache mode, gives only this fraction of the
	// nodes a warm cache; the rest boot with a cold cache (§5.3.1
	// discusses such mixed scenarios qualitatively: "it can be that some
	// of the nodes start from the cold cache and some from a warm
	// cache"). 0 means 1.0 (all warm).
	WarmFraction float64

	// Profile is the guest boot profile (already scaled by the caller).
	Profile boot.Profile

	// Profiles, when non-empty, makes the cluster heterogeneous: VMI v
	// boots Profiles[v %% len(Profiles)] (a public cloud's mixed guest
	// population, §2.2). Profile is ignored except as a fallback for
	// derived defaults.
	Profiles []boot.Profile

	// PageCacheBytes sizes the storage node's page cache; 0 picks
	// 200x the profile working set (the DAS-4 ratio: 16 GB vs 85 MB).
	PageCacheBytes int64

	// ThinkTime=false drops guest CPU time from the replay, making runs
	// I/O-only (used by data-path unit tests, not by figures).
	// Figures keep think time on: Think=true is the default via Run.
	NoThink bool
}

// Result aggregates one experiment run.
type Result struct {
	Params Params

	// BootTimes has one entry per node: invocation-to-ready time.
	BootTimes []time.Duration
	MeanBoot  time.Duration
	MaxBoot   time.Duration
	MinBoot   time.Duration

	// BaseTraffic is the payload read from base images at the storage
	// node (the Fig. 9/10 "observed traffic" metric).
	BaseTraffic int64

	// StorageSent is everything the storage node sent over its link,
	// including remote cache reads and cache transfers.
	StorageSent int64

	// CacheTransfer is the volume of cache images shipped back to the
	// storage node (Fig. 13 flow).
	CacheTransfer int64

	// StorageDiskBytes and PageCacheHits split base reads at the storage
	// node between its disk and its page cache.
	StorageDiskBytes int64
	PageCacheHits    int64

	// CacheUsed is the final physical size of the (first) cache image —
	// Table 2's "warm cache size" when the quota is ample.
	CacheUsed int64

	// CacheFills and CacheHits aggregate cache-image activity.
	CacheFills int64
	CacheHits  int64

	// LinkUtilization and DiskUtilization describe the storage node's
	// bottleneck resources over the run.
	LinkUtilization float64
	DiskUtilization float64
}

func (r *Result) finish(times []time.Duration) {
	r.BootTimes = times
	if len(times) == 0 {
		return
	}
	r.MinBoot, r.MaxBoot = times[0], times[0]
	var sum time.Duration
	for _, t := range times {
		sum += t
		if t < r.MinBoot {
			r.MinBoot = t
		}
		if t > r.MaxBoot {
			r.MaxBoot = t
		}
	}
	r.MeanBoot = sum / time.Duration(len(times))
}

// Run executes one experiment and returns its aggregates.
func Run(p Params) (*Result, error) {
	if p.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if p.VMIs <= 0 {
		p.VMIs = 1
	}
	if p.VMIs > p.Nodes {
		p.VMIs = p.Nodes
	}
	if p.CacheClusterBits == 0 {
		p.CacheClusterBits = 9
	}
	if p.CowClusterBits == 0 {
		p.CowClusterBits = 16
	}
	if len(p.Profiles) == 0 {
		p.Profiles = []boot.Profile{p.Profile}
	} else {
		p.Profile = p.Profiles[0]
	}
	if p.CacheQuota == 0 {
		var maxWS int64
		for _, pr := range p.Profiles {
			if pr.UniqueReadBytes > maxWS {
				maxWS = pr.UniqueReadBytes
			}
		}
		p.CacheQuota = maxWS + maxWS/2
	}
	// A quota below the image's initial metadata would be rejected at
	// create time; clamp so tiny sweep points behave as "almost no cache"
	// instead of failing.
	for _, pr := range p.Profiles {
		if min := qcow.MinCacheQuota(pr.ImageSize, p.CacheClusterBits); p.CacheQuota < min {
			p.CacheQuota = min
		}
	}
	if p.PageCacheBytes == 0 {
		p.PageCacheBytes = 200 * p.Profile.UniqueReadBytes
	}

	eng := sim.New(p.Seed)
	var linkParams simnet.LinkParams
	if p.Network == NetIB {
		linkParams = simnet.IB()
	} else {
		linkParams = simnet.GbE()
	}
	storage := newStorageNode(eng, linkParams, p)

	res := &Result{Params: p}
	times := make([]time.Duration, p.Nodes)

	// One workload per distinct profile; VMI v boots workload v.
	workloads := make([]*boot.Workload, p.VMIs)
	for v := 0; v < p.VMIs; v++ {
		workloads[v] = boot.Generate(p.Profiles[v%len(p.Profiles)])
	}

	// Warm caches are prepared outside simulated time: a previous boot
	// created them (§3.2). One shared, read-only container per VMI.
	if p.Mode == ModeWarmCache {
		if err := storage.prepareWarmCaches(workloads); err != nil {
			return nil, err
		}
	}

	nodes := make([]*computeNode, p.Nodes)
	mixed := p.Mode == ModeWarmCache && p.WarmFraction > 0 && p.WarmFraction < 1
	warmCount := p.Nodes
	if mixed {
		warmCount = int(p.WarmFraction * float64(p.Nodes))
	}
	for i := 0; i < p.Nodes; i++ {
		nodes[i] = newComputeNode(eng, i, storage, p)
		// Nodes [0, warmCount) hold warm caches; the rest boot cold
		// (mixed scenario only).
		if mixed && i >= warmCount {
			nodes[i].forceCold = true
		}
	}
	for i := 0; i < p.Nodes; i++ {
		n := nodes[i]
		eng.Go(fmt.Sprintf("node-%d", i), func(proc *sim.Proc) {
			start := proc.Now()
			if err := n.bootVM(proc, workloads[n.vmi]); err != nil {
				panic(err)
			}
			times[n.id] = proc.Now() - start
		})
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}

	res.finish(times)
	res.BaseTraffic = storage.baseTraffic
	res.StorageSent = storage.link.Bytes
	res.CacheTransfer = storage.cacheTransferred
	res.StorageDiskBytes = storage.disk.ReadBytes
	res.PageCacheHits = storage.pageCache.HitBytes
	res.LinkUtilization = storage.link.Queue().Utilization()
	res.DiskUtilization = storage.disk.Queue().Utilization()
	for _, n := range nodes {
		res.CacheFills += n.cacheFills
		res.CacheHits += n.cacheHits
		if res.CacheUsed == 0 && n.cacheUsed > 0 {
			res.CacheUsed = n.cacheUsed
		}
	}
	if res.CacheUsed == 0 {
		res.CacheUsed = storage.warmCacheSize()
	}
	return res, nil
}
