// Package sched implements the cache-aware cloud scheduler sketched in §3.4
// of the paper. OpenNebula-style base policies — packing, striping and
// load-aware mapping — are combined with the cache-aware heuristic
// ("allocation of VMs to nodes with an existing warm cache") and LRU
// eviction of VMI caches at node level.
//
// The paper leaves this component as future work; the implementation here
// follows its design discussion so the heuristic's effect can be measured
// (see the scheduler ablation benchmark).
package sched

import (
	"errors"
	"fmt"
	"sort"

	"vmicache/internal/core"
)

// Policy is the base placement policy.
type Policy int

// Base policies, mirroring OpenNebula's scheduler options (§3.4).
const (
	// Packing minimises the number of nodes in use by stacking VMs.
	Packing Policy = iota
	// Striping spreads VMs across nodes to maximise per-VM headroom.
	Striping
	// LoadAware places VMs on the least-loaded node.
	LoadAware
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Packing:
		return "packing"
	case Striping:
		return "striping"
	case LoadAware:
		return "load-aware"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// VMSpec describes a placement request.
type VMSpec struct {
	ID  string
	VMI string // base image the VM boots from
	CPU int    // requested cores
	Mem int64  // requested bytes
}

// Node is one compute node's scheduling state.
type Node struct {
	ID      string
	CPUCap  int
	MemCap  int64
	usedCPU int
	usedMem int64
	vms     map[string]VMSpec
	caches  *core.Pool // warm caches present on this node, keyed by VMI
}

// NewNode returns a node with the given capacities and cache budget.
func NewNode(id string, cpu int, mem int64, cacheBudget int64) *Node {
	return &Node{
		ID:     id,
		CPUCap: cpu,
		MemCap: mem,
		vms:    make(map[string]VMSpec),
		caches: core.NewPool(cacheBudget),
	}
}

// Fits reports whether the VM fits the node's remaining capacity.
func (n *Node) Fits(vm VMSpec) bool {
	return n.usedCPU+vm.CPU <= n.CPUCap && n.usedMem+vm.Mem <= n.MemCap
}

// Load reports the node's utilisation in [0,1+] (max of CPU and memory).
func (n *Node) Load() float64 {
	cpu := float64(n.usedCPU) / float64(maxInt(n.CPUCap, 1))
	mem := float64(n.usedMem) / float64(maxI64(n.MemCap, 1))
	l := cpu
	if mem > l {
		l = mem
	}
	return l
}

// VMs reports the number of VMs placed on the node.
func (n *Node) VMs() int { return len(n.vms) }

// HasWarmCache reports whether the node holds a warm cache for the VMI
// (without touching LRU recency).
func (n *Node) HasWarmCache(vmi string) bool { return n.caches.Contains(vmi) }

// CachePool exposes the node's cache pool (for eviction wiring).
func (n *Node) CachePool() *core.Pool { return n.caches }

// Errors returned by the scheduler.
var (
	ErrNoCapacity = errors.New("sched: no node has capacity for the VM")
	ErrUnknownVM  = errors.New("sched: unknown VM")
	ErrDuplicate  = errors.New("sched: VM already placed")
)

// Decision records one placement.
type Decision struct {
	Node *Node
	// WarmCache reports whether the chosen node already held a warm
	// cache for the VM's image.
	WarmCache bool
}

// Scheduler places VMs on nodes.
type Scheduler struct {
	policy     Policy
	cacheAware bool
	nodes      []*Node
	placements map[string]*Node
	rrNext     int // striping round-robin cursor

	warmPlacements int64
	coldPlacements int64
}

// New returns a scheduler with the given base policy; cacheAware enables
// the §3.4 warm-cache preference.
func New(policy Policy, cacheAware bool) *Scheduler {
	return &Scheduler{
		policy:     policy,
		cacheAware: cacheAware,
		placements: make(map[string]*Node),
	}
}

// AddNode registers a node.
func (s *Scheduler) AddNode(n *Node) { s.nodes = append(s.nodes, n) }

// Nodes returns the registered nodes.
func (s *Scheduler) Nodes() []*Node { return s.nodes }

// Schedule picks a node for the VM, reserves its resources, and reports
// whether the placement hit a warm cache.
func (s *Scheduler) Schedule(vm VMSpec) (*Decision, error) {
	if _, dup := s.placements[vm.ID]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, vm.ID)
	}
	var candidates []*Node
	for _, n := range s.nodes {
		if n.Fits(vm) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCapacity, vm.ID)
	}

	pool := candidates
	if s.cacheAware {
		// "One of the goals of a cache-aware scheduler should be
		// allocation of VMs to nodes with an existing warm cache.
		// This heuristic can be used in conjunction with any of the
		// above desired strategies." (§3.4)
		var warmNodes []*Node
		for _, n := range candidates {
			if n.HasWarmCache(vm.VMI) {
				warmNodes = append(warmNodes, n)
			}
		}
		if len(warmNodes) > 0 {
			pool = warmNodes
		}
	}

	chosen := s.applyPolicy(pool)
	// A cache-oblivious scheduler can still land on a warm node by luck;
	// the hit is a property of the chosen node, not of the heuristic.
	warm := chosen.HasWarmCache(vm.VMI)
	chosen.usedCPU += vm.CPU
	chosen.usedMem += vm.Mem
	chosen.vms[vm.ID] = vm
	s.placements[vm.ID] = chosen
	if warm {
		chosen.caches.Lookup(vm.VMI) // refresh recency
		s.warmPlacements++
	} else {
		s.coldPlacements++
	}
	return &Decision{Node: chosen, WarmCache: warm}, nil
}

// applyPolicy orders the candidate pool by the base policy and returns the
// winner. Ties break on node ID for determinism.
func (s *Scheduler) applyPolicy(pool []*Node) *Node {
	switch s.policy {
	case Packing:
		// Most-loaded node that still fits: minimise nodes in use.
		return minNode(pool, func(a, b *Node) bool {
			if a.Load() != b.Load() {
				return a.Load() > b.Load()
			}
			return a.ID < b.ID
		})
	case Striping:
		// Round-robin over the pool, then fewest VMs.
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].VMs() != pool[j].VMs() {
				return pool[i].VMs() < pool[j].VMs()
			}
			return pool[i].ID < pool[j].ID
		})
		n := pool[s.rrNext%len(pool)]
		s.rrNext++
		// Prefer the emptiest; the cursor only breaks ties among
		// equally empty nodes.
		if pool[0].VMs() < n.VMs() {
			n = pool[0]
		}
		return n
	default: // LoadAware
		return minNode(pool, func(a, b *Node) bool {
			if a.Load() != b.Load() {
				return a.Load() < b.Load()
			}
			return a.ID < b.ID
		})
	}
}

func minNode(pool []*Node, better func(a, b *Node) bool) *Node {
	best := pool[0]
	for _, n := range pool[1:] {
		if better(n, best) {
			best = n
		}
	}
	return best
}

// Release frees a VM's resources.
func (s *Scheduler) Release(vmID string) error {
	n, ok := s.placements[vmID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVM, vmID)
	}
	vm := n.vms[vmID]
	n.usedCPU -= vm.CPU
	n.usedMem -= vm.Mem
	delete(n.vms, vmID)
	delete(s.placements, vmID)
	return nil
}

// RecordWarmCache registers that a node now holds a warm cache of the given
// size for a VMI (typically after the first boot completes), applying the
// node's LRU budget.
func (s *Scheduler) RecordWarmCache(n *Node, vmi string, size int64) (evicted []string) {
	ev, _ := n.caches.Add(vmi, size)
	return ev
}

// WarmRatio reports the fraction of placements that landed on a warm cache.
func (s *Scheduler) WarmRatio() float64 {
	total := s.warmPlacements + s.coldPlacements
	if total == 0 {
		return 0
	}
	return float64(s.warmPlacements) / float64(total)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
