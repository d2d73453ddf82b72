package cluster

import (
	"fmt"
	"math"

	"vmicache/internal/boot"
	"vmicache/internal/metrics"
)

// This file maps every measured table and figure of the paper onto the
// simulation harness. Each function takes a scale factor: 1.0 reproduces
// the DAS-4 experiment at full size (tens of seconds of host CPU); smaller
// factors shrink working sets, image sizes and durations proportionally, so
// curves keep their shape while tests and benchmarks stay fast. Reported
// boot times and traffic are re-normalised back to full scale (divided /
// multiplied by the factor) so the numbers remain comparable to the paper's
// axes at any scale.

// nodeSteps is the x axis of the node-scaling figures.
var nodeSteps = []int{1, 4, 8, 16, 32, 64}

// vmiSteps is the x axis of the VMI-scaling figures (64 nodes).
var vmiSteps = []int{1, 4, 8, 16, 32, 64}

const expSeed = 20130703 // arbitrary fixed seed for reproducibility

// mustRun executes a run, panicking on harness misconfiguration (the
// experiment definitions are static, so errors are programming mistakes).
func mustRun(p Params) *Result {
	r, err := Run(p)
	if err != nil {
		panic(fmt.Sprintf("cluster experiment: %v", err))
	}
	return r
}

// renorm converts a scaled boot time to full-scale seconds.
func renorm(seconds, factor float64) float64 { return seconds / factor }

// renormBytes converts scaled traffic to full-scale MB.
func renormBytesMB(b int64, factor float64) float64 { return float64(b) / factor / 1e6 }

// Fig2 reproduces "Booting time of a CentOS Linux VM on many compute nodes
// simultaneously using a single VMI" (§2.1): plain QCOW2 over both
// networks, 1..64 nodes.
func Fig2(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Fig. 2: Scaling the number of nodes (QCOW2)", "# nodes", "booting time (s)")
	for _, net := range []Network{NetIB, NetGbE} {
		s := fig.AddSeries("QCOW2 - " + net.String())
		for _, n := range nodeSteps {
			r := mustRun(Params{Seed: expSeed, Network: net, Nodes: n, VMIs: 1,
				Mode: ModeQCOW2, Profile: prof})
			s.Add(float64(n), renorm(r.MeanBoot.Seconds(), factor), 0)
		}
	}
	return fig
}

// Fig3 reproduces "Booting time ... using different number of VMIs" (§2.2):
// 64 nodes, 1..64 distinct VMIs, plain QCOW2 over both networks.
func Fig3(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Fig. 3: Scaling the number of VMIs - 64 nodes (QCOW2)", "# VMIs", "booting time (s)")
	for _, net := range []Network{NetIB, NetGbE} {
		s := fig.AddSeries("QCOW2 - " + net.String())
		for _, v := range vmiSteps {
			r := mustRun(Params{Seed: expSeed, Network: net, Nodes: 64, VMIs: v,
				Mode: ModeQCOW2, Profile: prof})
			s.Add(float64(v), renorm(r.MeanBoot.Seconds(), factor), 0)
		}
	}
	return fig
}

// fig8Quotas sweeps the cache quota like the paper's 20..140 MB x axis
// (values in full-scale MB, scaled down inside the runs).
var fig8Quotas = []float64{20, 40, 60, 80, 100, 120, 140}

// Fig8 reproduces "Cache creation overhead with increasing cache quota"
// (§5.1): one compute node, 1 GbE, cache quota sweep. Series: warm cache,
// cold cache created in memory, cold cache created on disk (synchronous
// writes), and the QCOW2 baseline. Cache cluster size is QCOW2's default
// 64 KiB here — the 512 B refinement comes later (Fig. 9/10).
func Fig8(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Fig. 8: Cache creation overhead vs cache quota (1 node, 1GbE)", "cache size (MB)", "booting time (s)")
	warm := fig.AddSeries("Warm cache")
	coldMem := fig.AddSeries("Cold cache - on mem")
	coldDisk := fig.AddSeries("Cold cache - on disk")
	qcow2 := fig.AddSeries("QCOW2")
	base := mustRun(Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
		Mode: ModeQCOW2, Profile: prof})
	for _, qMB := range fig8Quotas {
		quota := int64(qMB * 1e6 * factor)
		common := Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
			Profile: prof, CacheQuota: quota, CacheClusterBits: 16}
		pw := common
		pw.Mode = ModeWarmCache
		pw.Placement = PlaceComputeDisk
		warm.Add(qMB, renorm(mustRun(pw).MeanBoot.Seconds(), factor), 0)
		pm := common
		pm.Mode = ModeColdCache
		pm.Placement = PlaceComputeMem
		coldMem.Add(qMB, renorm(mustRun(pm).MeanBoot.Seconds(), factor), 0)
		pd := common
		pd.Mode = ModeColdCache
		pd.Placement = PlaceComputeDisk
		pd.ColdOnDisk = true
		coldDisk.Add(qMB, renorm(mustRun(pd).MeanBoot.Seconds(), factor), 0)
		qcow2.Add(qMB, renorm(base.MeanBoot.Seconds(), factor), 0)
	}
	return fig
}

// Fig9 reproduces "Observed traffic at the storage node with increasing
// cache quota" (§5.1): same setup as Fig. 8 but measuring base-image
// traffic, comparing 512 B and 64 KiB cache cluster sizes. The cold cache
// at 64 KiB clusters amplifies traffic beyond plain QCOW2; 512 B clusters
// remove the amplification.
func Fig9(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Fig. 9: Traffic at the storage node vs cache quota (1 node, 1GbE)", "cache size (MB)", "transferred size (MB)")
	type cfg struct {
		name string
		mode Mode
		bits int
	}
	cfgs := []cfg{
		{"Warm cache - cluster = 512B", ModeWarmCache, 9},
		{"Warm cache - cluster = 64KB", ModeWarmCache, 16},
		{"Cold cache - cluster = 512B", ModeColdCache, 9},
		{"Cold cache - cluster = 64KB", ModeColdCache, 16},
	}
	series := make([]*metrics.Series, len(cfgs))
	for i, c := range cfgs {
		series[i] = fig.AddSeries(c.name)
	}
	qcow2 := fig.AddSeries("QCOW2")
	base := mustRun(Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
		Mode: ModeQCOW2, Profile: prof})
	for _, qMB := range fig8Quotas {
		quota := int64(qMB * 1e6 * factor)
		for i, c := range cfgs {
			p := Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
				Mode: c.mode, Placement: PlaceComputeMem, Profile: prof,
				CacheQuota: quota, CacheClusterBits: c.bits}
			series[i].Add(qMB, renormBytesMB(mustRun(p).BaseTraffic, factor), 0)
		}
		qcow2.Add(qMB, renormBytesMB(base.BaseTraffic, factor), 0)
	}
	return fig
}

// Fig10 reproduces the "final arrangement for cache creation" (§5.1):
// 512 B cache clusters, cold cache created in compute-node memory. It
// reports both axes of the paper's dual plot: boot time and transferred
// size, for warm / cold / QCOW2, over the quota sweep.
func Fig10(factor float64) (bootFig, txFig *metrics.Figure) {
	prof := boot.CentOS.Scale(factor)
	bootFig = metrics.NewFigure("Fig. 10: Final arrangement (512B clusters, cold cache on memory) - boot time", "cache size (MB)", "booting time (s)")
	txFig = metrics.NewFigure("Fig. 10: Final arrangement (512B clusters, cold cache on memory) - traffic", "cache size (MB)", "transferred size (MB)")
	wb := bootFig.AddSeries("Warm cache - boot time")
	cb := bootFig.AddSeries("Cold cache - boot time")
	qb := bootFig.AddSeries("QCOW2 - boot time")
	wt := txFig.AddSeries("Warm cache - tx size")
	ct := txFig.AddSeries("Cold cache - tx size")
	qt := txFig.AddSeries("QCOW2 - tx size")
	base := mustRun(Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
		Mode: ModeQCOW2, Profile: prof})
	for _, qMB := range fig8Quotas {
		quota := int64(qMB * 1e6 * factor)
		common := Params{Seed: expSeed, Network: NetGbE, Nodes: 1, VMIs: 1,
			Profile: prof, CacheQuota: quota, CacheClusterBits: 9,
			Placement: PlaceComputeMem}
		pw := common
		pw.Mode = ModeWarmCache
		rw := mustRun(pw)
		wb.Add(qMB, renorm(rw.MeanBoot.Seconds(), factor), 0)
		wt.Add(qMB, renormBytesMB(rw.BaseTraffic, factor), 0)
		pc := common
		pc.Mode = ModeColdCache
		rc := mustRun(pc)
		cb.Add(qMB, renorm(rc.MeanBoot.Seconds(), factor), 0)
		ct.Add(qMB, renormBytesMB(rc.BaseTraffic, factor), 0)
		qb.Add(qMB, renorm(base.MeanBoot.Seconds(), factor), 0)
		qt.Add(qMB, renormBytesMB(base.BaseTraffic, factor), 0)
	}
	return bootFig, txFig
}

// Fig11 reproduces "Caching a single VMI image at compute nodes over a
// 1GbE" (§5.3.1): warm / cold / QCOW2, 1..64 nodes, single VMI, caches on
// the compute nodes (final arrangement).
func Fig11(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Fig. 11: Caching a single VMI at compute nodes (1GbE)", "# nodes", "booting time (s)")
	warm := fig.AddSeries("Warm cache")
	cold := fig.AddSeries("Cold cache")
	qcow2 := fig.AddSeries("QCOW2")
	for _, n := range nodeSteps {
		pw := Params{Seed: expSeed, Network: NetGbE, Nodes: n, VMIs: 1,
			Mode: ModeWarmCache, Placement: PlaceComputeDisk, Profile: prof}
		warm.Add(float64(n), renorm(mustRun(pw).MeanBoot.Seconds(), factor), 0)
		pc := pw
		pc.Mode = ModeColdCache
		pc.Placement = PlaceComputeMem
		cold.Add(float64(n), renorm(mustRun(pc).MeanBoot.Seconds(), factor), 0)
		pq := pw
		pq.Mode = ModeQCOW2
		qcow2.Add(float64(n), renorm(mustRun(pq).MeanBoot.Seconds(), factor), 0)
	}
	return fig
}

// Fig12 reproduces "Caching many VMIs at the compute nodes' disk over the
// two different networks" (§5.3.2): 64 nodes, 1..64 VMIs, caches on the
// compute nodes' disks.
func Fig12(factor float64) (gbe, ib *metrics.Figure) {
	return vmiScalingPair(factor, PlaceComputeDisk,
		"Fig. 12: Caching many VMIs at compute nodes' disk")
}

// Fig14 reproduces "Caching many VMI on the storage node's memory over the
// two different networks" (§5.3.2): warm caches live in the storage node's
// tmpfs; cold caches are created at compute nodes and transferred back,
// with the transfer time accounted into boot time.
func Fig14(factor float64) (gbe, ib *metrics.Figure) {
	return vmiScalingPair(factor, PlaceStorageMem,
		"Fig. 14: Caching many VMIs on the storage node's memory")
}

func vmiScalingPair(factor float64, place Placement, title string) (gbe, ib *metrics.Figure) {
	prof := boot.CentOS.Scale(factor)
	figs := make([]*metrics.Figure, 2)
	for i, net := range []Network{NetGbE, NetIB} {
		fig := metrics.NewFigure(fmt.Sprintf("%s (%s)", title, net), "# VMIs", "booting time (s)")
		warm := fig.AddSeries("Warm cache")
		cold := fig.AddSeries("Cold cache")
		qcow2 := fig.AddSeries("QCOW2")
		for _, v := range vmiSteps {
			pw := Params{Seed: expSeed, Network: net, Nodes: 64, VMIs: v,
				Mode: ModeWarmCache, Placement: place, Profile: prof}
			warm.Add(float64(v), renorm(mustRun(pw).MeanBoot.Seconds(), factor), 0)
			pc := pw
			pc.Mode = ModeColdCache
			if place == PlaceComputeDisk {
				// Final arrangement: cold caches are created in
				// node memory, written back after shutdown.
				pc.Placement = PlaceComputeMem
			}
			cold.Add(float64(v), renorm(mustRun(pc).MeanBoot.Seconds(), factor), 0)
			pq := pw
			pq.Mode = ModeQCOW2
			qcow2.Add(float64(v), renorm(mustRun(pq).MeanBoot.Seconds(), factor), 0)
		}
		figs[i] = fig
	}
	return figs[0], figs[1]
}

// Sec6Delta reproduces the §6 micro-experiment: the relative boot-time
// difference between a warm cache on the compute node's disk and one in the
// storage node's memory, over the fast network. The paper measures at most
// 1%; anything small confirms the placement recommendation.
func Sec6Delta(factor float64) (disk, mem float64, deltaPct float64) {
	prof := boot.CentOS.Scale(factor)
	pd := Params{Seed: expSeed, Network: NetIB, Nodes: 1, VMIs: 1,
		Mode: ModeWarmCache, Placement: PlaceComputeDisk, Profile: prof}
	rd := mustRun(pd)
	pm := pd
	pm.Placement = PlaceStorageMem
	rm := mustRun(pm)
	disk = renorm(rd.MeanBoot.Seconds(), factor)
	mem = renorm(rm.MeanBoot.Seconds(), factor)
	deltaPct = math.Abs(disk-mem) / math.Max(disk, mem) * 100
	return disk, mem, deltaPct
}

// Table1 reproduces "Read working set size of various VMIs for booting the
// VM" (§2.3) by generating each guest's boot stream and measuring the
// unique bytes it reads. At factor 1.0 the values are the paper's own.
func Table1(factor float64) *metrics.Table {
	tb := metrics.NewTable("Table 1: Read working set size of various VMIs",
		"VMI", "Size of unique reads")
	for _, p := range boot.Profiles() {
		w := boot.Generate(p.Scale(factor))
		tb.AddRow(p.Name, fmt.Sprintf("%.1f MB", float64(w.UniqueReadBytes())/factor/1e6))
	}
	return tb
}

// Table2 reproduces "Cache quota necessary for various VMIs" (§5.2): the
// physical size of a fully warmed 512 B-cluster cache image, i.e. working
// set plus QCOW2 metadata.
func Table2(factor float64) *metrics.Table {
	tb := metrics.NewTable("Table 2: Cache quota necessary for various VMIs",
		"VMI", "Warm cache size")
	for _, bp := range boot.Profiles() {
		prof := bp.Scale(factor)
		r := mustRun(Params{Seed: expSeed, Network: NetIB, Nodes: 1, VMIs: 1,
			Mode: ModeWarmCache, Placement: PlaceComputeMem, Profile: prof,
			CacheQuota: prof.ImageSize})
		tb.AddRow(bp.Name, fmt.Sprintf("%.0f MB", renormBytesMB(r.CacheUsed, factor)))
	}
	return tb
}

// ExtMixedWarmCold extends the paper: §5.3.1 notes that "depending on the
// cloud node scheduler, it can be that some of the nodes start from the
// cold cache and some from a warm cache" but presents no quantitative
// results. This experiment sweeps the warm fraction at 64 nodes over 1 GbE
// (single VMI) and reports the mean boot time of all nodes, of the warm
// subset and of the cold subset — showing that warm nodes also relieve the
// network for the cold ones.
func ExtMixedWarmCold(factor float64) *metrics.Figure {
	prof := boot.CentOS.Scale(factor)
	fig := metrics.NewFigure("Extension: mixed warm/cold nodes (64 nodes, 1GbE, 1 VMI)",
		"warm fraction (%)", "booting time (s)")
	all := fig.AddSeries("All nodes (mean)")
	warmS := fig.AddSeries("Warm subset")
	coldS := fig.AddSeries("Cold subset")
	for _, pct := range []int{0, 25, 50, 75, 100} {
		frac := float64(pct) / 100
		p := Params{Seed: expSeed, Network: NetGbE, Nodes: 64, VMIs: 1,
			Mode: ModeWarmCache, Placement: PlaceComputeDisk,
			WarmFraction: frac, Profile: prof}
		if pct == 0 {
			p.Mode = ModeColdCache
			p.Placement = PlaceComputeMem
		}
		r := mustRun(p)
		all.Add(float64(pct), renorm(r.MeanBoot.Seconds(), factor), 0)
		warmCount := int(frac * 64)
		if pct == 100 {
			warmCount = 64
		}
		var warmSum, coldSum float64
		var warmN, coldN int
		for i, bt := range r.BootTimes {
			isWarm := p.Mode == ModeWarmCache && i < warmCount
			if isWarm {
				warmSum += bt.Seconds()
				warmN++
			} else {
				coldSum += bt.Seconds()
				coldN++
			}
		}
		if warmN > 0 {
			warmS.Add(float64(pct), renorm(warmSum/float64(warmN), factor), 0)
		}
		if coldN > 0 {
			coldS.Add(float64(pct), renorm(coldSum/float64(coldN), factor), 0)
		}
	}
	return fig
}

// ExtHeterogeneous extends the evaluation to a mixed guest population: 64
// nodes boot a cloud-like blend of all three Table 1 guests simultaneously
// (the paper measures CentOS only in its scaling runs). Warm caches must
// hold every profile at its own single-VM level.
func ExtHeterogeneous(factor float64) *metrics.Figure {
	profiles := []boot.Profile{
		boot.CentOS.Scale(factor),
		boot.Debian.Scale(factor),
		boot.WindowsServer.Scale(factor),
	}
	fig := metrics.NewFigure("Extension: heterogeneous guests (64 nodes, 32GbIB)",
		"# VMIs", "booting time (s)")
	warm := fig.AddSeries("Warm cache (mixed guests)")
	qcow2 := fig.AddSeries("QCOW2 (mixed guests)")
	for _, v := range []int{3, 12, 24, 48} {
		pw := Params{Seed: expSeed, Network: NetIB, Nodes: 64, VMIs: v,
			Mode: ModeWarmCache, Placement: PlaceComputeDisk, Profiles: profiles}
		warm.Add(float64(v), renorm(mustRun(pw).MeanBoot.Seconds(), factor), 0)
		pq := pw
		pq.Mode = ModeQCOW2
		qcow2.Add(float64(v), renorm(mustRun(pq).MeanBoot.Seconds(), factor), 0)
	}
	return fig
}

// ExtSnapshotRestore explores §8's closing future-work item: caching VM
// *memory snapshots*. Restoring 64 VMs from per-VM snapshot files hits the
// same storage bottlenecks as booting from images; a cache holding each
// snapshot's resident set removes them the same way.
func ExtSnapshotRestore(factor float64) *metrics.Figure {
	// A 2 GiB guest; the restore touches ~340 MB of resident pages.
	restore := boot.CentOS.Scale(factor).RestoreProfile(int64(float64(2<<30) * factor))
	fig := metrics.NewFigure("Extension: restoring 64 VMs from memory snapshots (32GbIB)",
		"# snapshots", "restore time (s)")
	warm := fig.AddSeries("Warm cache")
	qcow2 := fig.AddSeries("No cache (on-demand)")
	for _, v := range []int{1, 8, 32, 64} {
		pw := Params{Seed: expSeed, Network: NetIB, Nodes: 64, VMIs: v,
			Mode: ModeWarmCache, Placement: PlaceComputeDisk, Profile: restore}
		warm.Add(float64(v), renorm(mustRun(pw).MeanBoot.Seconds(), factor), 0)
		pq := pw
		pq.Mode = ModeQCOW2
		qcow2.Add(float64(v), renorm(mustRun(pq).MeanBoot.Seconds(), factor), 0)
	}
	return fig
}
