// Package vmicache is a reproduction of "Scalable Virtual Machine
// Deployment Using VM Image Caches" (Razavi & Kielmann, SC '13) as a Go
// library.
//
// The core idea of the paper: a VM reads only a tiny fraction (tens to
// ~200 MB) of its multi-GB image while booting, so a small, standalone,
// quota-limited *VMI cache* image — inserted between the copy-on-write
// image and the base image — removes the network and storage-disk
// bottlenecks from simultaneous VM startup. This package exposes:
//
//   - A QCOW2-style image format with the paper's cache extension
//     (copy-on-read fill, quota with space-error semantics, immutability
//     towards the base): CreateImage / CreateCache / CreateCoW / OpenChain.
//   - Media as Stores (OS directories, memory/tmpfs) and a namespace that
//     chains images across them.
//   - Guest boot-workload profiles (CentOS / Debian / Windows Server,
//     Table 1) and a replayer that boots chains for real.
//   - The DAS-4 evaluation harness reproducing every measured figure and
//     table of the paper under simulated time: Experiment* functions.
//   - The §6 placement logic (Algorithm 1) and the §3.4 cache-aware
//     scheduler.
//   - A remote block protocol (the NFS stand-in) and an NBD server (the
//     hypervisor attach path) for real-network deployments.
//
// A minimal end-to-end use:
//
//	ns := vmicache.NewNamespace("nfs", vmicache.NewMemStore())
//	ns.Register("node0", vmicache.NewMemStore())
//	_ = vmicache.CreateBase(ns, vmicache.Loc("nfs:centos.img"), 10<<30, 0, nil)
//	_ = vmicache.CreateCache(ns, vmicache.Loc("node0:centos.cache"), vmicache.Loc("nfs:centos.img"), 10<<30, 250<<20, 0)
//	_ = vmicache.CreateCoW(ns, vmicache.Loc("node0:vm0.cow"), vmicache.Loc("node0:centos.cache"), 10<<30, 0)
//	chain, _ := vmicache.OpenChain(ns, vmicache.Loc("node0:vm0.cow"), vmicache.ChainOpts{})
//	defer chain.Close()
//	// chain.ReadAt / chain.WriteAt are the VM's virtual disk.
package vmicache

import (
	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/chain"
	"vmicache/internal/cloudsim"
	"vmicache/internal/cluster"
	"vmicache/internal/core"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
	"vmicache/internal/sched"
	"vmicache/internal/trace"
)

// ---- Media & stores ----

// Store is a named collection of block files (a medium: disk directory,
// tmpfs, ...).
type Store = backend.Store

// MemStore is an in-memory Store (the tmpfs stand-in).
type MemStore = backend.MemStore

// DirStore is a directory-backed Store.
type DirStore = backend.DirStore

// File is the random-access block container interface.
type File = backend.File

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return backend.NewMemStore() }

// NewDirStore returns a store rooted at dir (created if absent).
func NewDirStore(dir string) (*DirStore, error) { return backend.NewDirStore(dir) }

// ---- Image format ----

// Image is an open image file (base, CoW or cache).
type Image = qcow.Image

// ImageCreateOpts parameterises low-level image creation.
type ImageCreateOpts = qcow.CreateOpts

// ImageOpenOpts parameterises low-level image opening.
type ImageOpenOpts = qcow.OpenOpts

// Cache cluster-size constants: the paper's evaluation settles on 512-byte
// clusters for cache images (Fig. 9) and keeps QCOW2's 64 KiB default for
// base and CoW images.
const (
	CacheClusterBits   = qcow.CacheClusterBits
	DefaultClusterBits = qcow.DefaultClusterBits
)

// ErrCacheFull is the cache-quota space error of §4.3.
var ErrCacheFull = qcow.ErrCacheFull

// MinCacheQuota reports the smallest admissible cache quota for an image of
// the given virtual size and cluster bits.
func MinCacheQuota(size int64, clusterBits int) int64 {
	return qcow.MinCacheQuota(size, clusterBits)
}

// ---- Chains & namespaces ----

// Namespace maps store names to Stores so backing-file references resolve
// across media.
type Namespace = core.Namespace

// Locator names an image on a medium ("store:name").
type Locator = core.Locator

// Chain is an open image chain (CoW -> cache -> base).
type Chain = core.Chain

// ChainOpts configures OpenChain.
type ChainOpts = core.ChainOpts

// Span is a byte range used to warm caches.
type Span = core.Span

// Pool is an LRU pool of cache images on one medium.
type Pool = core.Pool

// NewNamespace returns a namespace whose bare names resolve in the given
// default store.
func NewNamespace(defName string, def Store) *Namespace {
	return core.NewNamespace(defName, def)
}

// Loc parses "store:name" (or bare "name") into a Locator.
func Loc(s string) Locator { return core.ParseLocator(s) }

// CreateBase creates a standalone base image filled from content (nil for a
// zero disk).
func CreateBase(ns *Namespace, loc Locator, size int64, clusterBits int, content qcow.BlockSource) error {
	return core.CreateBase(ns, loc, size, clusterBits, content)
}

// CreateCache performs step one of the §4.4 workflow: a quota-limited cache
// image backed by the base.
func CreateCache(ns *Namespace, loc, backing Locator, size, quota int64, clusterBits int) error {
	return core.CreateCache(ns, loc, backing, size, quota, clusterBits)
}

// CreateCoW performs step two of §4.4: a copy-on-write image backed by the
// cache (or directly by the base).
func CreateCoW(ns *Namespace, loc, backing Locator, size int64, clusterBits int) error {
	return core.CreateCoW(ns, loc, backing, size, clusterBits)
}

// OpenChain opens an image and its full backing chain, applying the §4.3
// permission handling (caches stay writable to warm themselves; plain
// backing images are re-opened read-only).
func OpenChain(ns *Namespace, loc Locator, opts ChainOpts) (*Chain, error) {
	return core.OpenChain(ns, loc, opts)
}

// Warm replays read spans against a chain to populate its cache image
// (§3.2 cache creation).
func Warm(c *Chain, spans []Span) (int64, error) { return core.Warm(c, spans) }

// TransferCache copies a cache image to another medium (e.g. the storage
// node's memory, Fig. 13).
func TransferCache(ns *Namespace, dst, src Locator) (int64, error) {
	return core.TransferCache(ns, dst, src)
}

// NewPool returns an LRU cache pool with the given byte capacity.
func NewPool(capacity int64) *Pool { return core.NewPool(capacity) }

// ---- Boot workloads ----

// BootProfile describes a guest OS boot's block-level behaviour.
type BootProfile = boot.Profile

// BootWorkload is a generated boot operation stream.
type BootWorkload = boot.Workload

// ReplayOpts configures real-time workload replay.
type ReplayOpts = boot.ReplayOpts

// ReplayResult summarises one replay.
type ReplayResult = boot.ReplayResult

// PatternSource is a deterministic, storage-free disk content generator.
type PatternSource = boot.PatternSource

// The guests of Table 1.
var (
	CentOS        = boot.CentOS
	Debian        = boot.Debian
	WindowsServer = boot.WindowsServer
)

// GenerateBoot expands a profile into its deterministic operation stream.
func GenerateBoot(p BootProfile) *BootWorkload { return boot.Generate(p) }

// ReplayBoot runs a workload against a device (a *Chain, an *Image, or an
// NBD client) in real time.
func ReplayBoot(w *BootWorkload, dev boot.Device, opts ReplayOpts) (*ReplayResult, error) {
	return boot.Replay(w, dev, opts)
}

// ---- Tracing ----

// TraceRecorder captures block accesses and their unique-read working set
// (Table 1's metric).
type TraceRecorder = trace.Recorder

// WorkingSet summarises a trace.
type WorkingSet = trace.WorkingSet

// NewTraceRecorder returns a wall-clock trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// ---- Evaluation harness ----

// ExperimentParams configures one cluster experiment run.
type ExperimentParams = cluster.Params

// ExperimentResult aggregates one run.
type ExperimentResult = cluster.Result

// Experiment knobs.
const (
	NetGbE           = cluster.NetGbE
	NetIB            = cluster.NetIB
	ModeQCOW2        = cluster.ModeQCOW2
	ModeColdCache    = cluster.ModeColdCache
	ModeWarmCache    = cluster.ModeWarmCache
	PlaceComputeDisk = cluster.PlaceComputeDisk
	PlaceComputeMem  = cluster.PlaceComputeMem
	PlaceStorageMem  = cluster.PlaceStorageMem
)

// RunExperiment executes one simulated cluster experiment.
func RunExperiment(p ExperimentParams) (*ExperimentResult, error) { return cluster.Run(p) }

// Figure is a reproduced paper figure (text-rendered series).
type Figure = metrics.Figure

// ReproTable is a reproduced paper table.
type ReproTable = metrics.Table

// The per-figure experiment drivers; factor scales the workload (1.0 = the
// paper's full size).
var (
	ExperimentFig2   = cluster.Fig2
	ExperimentFig3   = cluster.Fig3
	ExperimentFig8   = cluster.Fig8
	ExperimentFig9   = cluster.Fig9
	ExperimentFig10  = cluster.Fig10
	ExperimentFig11  = cluster.Fig11
	ExperimentFig12  = cluster.Fig12
	ExperimentFig14  = cluster.Fig14
	ExperimentSec6   = cluster.Sec6Delta
	ExperimentTable1 = cluster.Table1
	ExperimentTable2 = cluster.Table2

	// Extensions beyond the paper's measured figures.
	ExperimentMixedWarmCold   = cluster.ExtMixedWarmCold
	ExperimentHeterogeneous   = cluster.ExtHeterogeneous
	ExperimentSnapshotRestore = cluster.ExtSnapshotRestore
)

// ---- Placement (§6) and scheduling (§3.4) ----

// Planner executes Algorithm 1.
type Planner = chain.Planner

// PlannerComputeNode is a compute node's view for the planner.
type PlannerComputeNode = chain.ComputeNode

// PlannerStorageNode is the storage node's view for the planner.
type PlannerStorageNode = chain.StorageNode

// PlacementPlan is the outcome of Algorithm 1 for one VM start.
type PlacementPlan = chain.Plan

// RecommendPlacement returns §6's placement advice.
var RecommendPlacement = chain.Recommend

// Scheduler is the cache-aware cloud scheduler.
type Scheduler = sched.Scheduler

// SchedulerNode is one schedulable compute node.
type SchedulerNode = sched.Node

// VMSpec is a placement request.
type VMSpec = sched.VMSpec

// Scheduling policies (OpenNebula-style).
const (
	Packing   = sched.Packing
	Striping  = sched.Striping
	LoadAware = sched.LoadAware
)

// NewScheduler returns a scheduler with the given base policy and optional
// §3.4 cache-awareness.
func NewScheduler(policy sched.Policy, cacheAware bool) *Scheduler {
	return sched.New(policy, cacheAware)
}

// NewSchedulerNode returns a node with the given capacities and cache
// budget.
func NewSchedulerNode(id string, cpu int, mem, cacheBudget int64) *SchedulerNode {
	return sched.NewNode(id, cpu, mem, cacheBudget)
}

// ---- Network services ----

// RBlockServer exports a Store over TCP (the NFS stand-in).
type RBlockServer = rblock.Server

// RBlockClient is a remote-store client.
type RBlockClient = rblock.Client

// NewRBlockServer returns a remote block server for store.
func NewRBlockServer(store Store, opts rblock.ServerOpts) *RBlockServer {
	return rblock.NewServer(store, opts)
}

// DialRBlock connects to a remote block server.
func DialRBlock(addr string) (*RBlockClient, error) { return rblock.Dial(addr, 0) }

// NBDServer exports image chains as network block devices.
type NBDServer = nbd.Server

// NBDExport describes one served device.
type NBDExport = nbd.Export

// NewNBDServer returns an NBD server.
func NewNBDServer(logf func(string, ...any)) *NBDServer { return nbd.NewServer(logf) }

// DialNBD attaches to an NBD export.
func DialNBD(addr, export string) (*nbd.Client, error) { return nbd.Dial(addr, export) }

// ---- Extensions (§7.3 disclosure) ----

// Disclosure extracts a cache image's inferred future-access list: its
// allocated extents in fill order.
func Disclosure(cache *Image) ([]Span, error) { return core.Disclosure(cache) }

// ---- Cloud-scale simulation (integration of §3.4 + §6) ----

// CloudParams configures a whole-cloud simulation: Poisson VM arrivals over
// a Zipf image mix, cache-aware scheduling, Algorithm 1 cache placement.
type CloudParams = cloudsim.Params

// CloudResult summarises a cloud simulation.
type CloudResult = cloudsim.Result

// Cloud provisioning schemes.
const (
	SchemeQCOW2    = cloudsim.SchemeQCOW2
	SchemeVMICache = cloudsim.SchemeVMICache
)

// RunCloud executes a cloud simulation.
func RunCloud(p CloudParams) (*CloudResult, error) { return cloudsim.Run(p) }
