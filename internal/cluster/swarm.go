package cluster

// Flash-crowd swarm experiment — unlike the rest of this package, which is a
// discrete-event simulation, this harness boots REAL cache-manager nodes over
// real TCP: one rblock storage node holding a patterned base, then N managers
// that cold-warm the same image simultaneously, discovering each other
// through an in-process tracker and trading chunks while they fill. The
// question it answers is the paper's Fig. 6/7 question at the chunk level:
// when a whole crowd wants one image at once, how much does the storage node
// actually serve? With chunk-level swarming the answer should stay near ONE
// copy of the image regardless of crowd size.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/metrics"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
	"vmicache/internal/swarm"
)

// SwarmParams configures one flash-crowd run.
type SwarmParams struct {
	// Nodes is the crowd size (>= 1).
	Nodes int
	// ImageSize is the base image's virtual size (default 2 MiB; rounded
	// up to a whole number of chunks).
	ImageSize int64
	// BaseClusterBits sizes the storage-side base image's clusters
	// (default 10: metadata reads are cluster-sized, and every node in
	// the crowd pays the chain-open metadata cost against the storage
	// node, so small clusters keep N×metadata negligible next to one
	// copy of the image).
	BaseClusterBits int
	// CacheClusterBits sizes the node caches' clusters (default 16,
	// matching swarm.ChunkSize so one chunk fills one cluster).
	CacheClusterBits int
	// MaxPeers caps each node's active peer set (default 10, 0 keeps the
	// default; <0 means unbounded).
	MaxPeers int
	// PrimaryHold delays the first storage fetch so the crowd's tracker
	// membership converges before storage-primary elections (default
	// 250ms plus 15ms per node: each node's cache creation and chain
	// open serialise on CPU and I/O, so the last arrival's announce
	// lands correspondingly later).
	PrimaryHold time.Duration
	// FallbackAfter is the per-chunk starvation timeout before a
	// non-primary goes to storage anyway. It is a liveness backstop, not
	// a performance knob: if it fires while the swarm is merely slow (a
	// big crowd sharing one CPU), every premature fallback adds storage
	// traffic, which slows the swarm further and trips yet more
	// fallbacks. Default 5s plus 150ms per node.
	FallbackAfter time.Duration
	// Refresh is the announce/map-poll interval (default 100ms plus 2ms
	// per node: poll traffic is Nodes×MaxPeers per interval, so big
	// crowds poll less often).
	Refresh time.Duration
	// Seed patterns the base content.
	Seed int64
	// Verify re-reads one node's cache against the pattern.
	Verify bool
	// Logf, when non-nil, receives node-level events.
	Logf func(format string, args ...any)
}

// SwarmResult reports one flash-crowd run.
type SwarmResult struct {
	Nodes     int
	ImageSize int64
	// SingleCopyBytes is what the storage node serves when ONE node warms
	// alone — the image plus unavoidable chain metadata; the denominator
	// of the flash-crowd bound.
	SingleCopyBytes int64
	// StorageBytes is what the storage node served during the crowd warm.
	StorageBytes int64
	// ChunksPeer/ChunksStorage sum every node's chunk sources.
	ChunksPeer    int64
	ChunksStorage int64
	// Reassigned counts chunks that changed source mid-warm.
	Reassigned int64
	// Elapsed is the crowd phase's wall time (all N warms, start to last
	// finish).
	Elapsed time.Duration
}

// Ratio is storage traffic over the single-copy bound — the number the
// 1.5× acceptance bar is about.
func (r *SwarmResult) Ratio() float64 {
	if r.SingleCopyBytes == 0 {
		return 0
	}
	return float64(r.StorageBytes) / float64(r.SingleCopyBytes)
}

func (p *SwarmParams) defaults() {
	if p.Nodes <= 0 {
		p.Nodes = 1
	}
	if p.ImageSize <= 0 {
		p.ImageSize = 2 << 20
	}
	const cs = swarm.ChunkSize
	p.ImageSize = (p.ImageSize + cs - 1) / cs * cs
	if p.BaseClusterBits == 0 {
		p.BaseClusterBits = 10
	}
	if p.CacheClusterBits == 0 {
		p.CacheClusterBits = 16
	}
	if p.MaxPeers == 0 {
		p.MaxPeers = 10
	} else if p.MaxPeers < 0 {
		p.MaxPeers = 0
	}
	if p.PrimaryHold == 0 {
		p.PrimaryHold = 250*time.Millisecond + time.Duration(p.Nodes)*15*time.Millisecond
	}
	if p.FallbackAfter == 0 {
		p.FallbackAfter = 5*time.Second + time.Duration(p.Nodes)*150*time.Millisecond
	}
	if p.Refresh == 0 {
		p.Refresh = 100*time.Millisecond + time.Duration(p.Nodes)*2*time.Millisecond
	}
}

// swarmStorage is the harness's storage node: an rblock server over a memory
// store holding one patterned base image.
type swarmStorage struct {
	srv     *rblock.Server
	addr    string
	pattern []byte
}

func newSwarmStorage(p SwarmParams) (*swarmStorage, error) {
	pat := make([]byte, p.ImageSize)
	rand.New(rand.NewSource(p.Seed)).Read(pat)
	content := backend.NewMemFileSize(p.ImageSize)
	if err := backend.WriteFull(content, pat, 0); err != nil {
		return nil, err
	}
	store := backend.NewMemStore()
	ns := core.NewNamespace("s", store)
	if err := core.CreateBase(ns, core.Locator{Store: "s", Name: "base.img"},
		p.ImageSize, p.BaseClusterBits, qcow.RawSource{R: content, N: p.ImageSize}); err != nil {
		return nil, fmt.Errorf("swarm harness: creating base: %w", err)
	}
	srv := rblock.NewServer(store, rblock.ServerOpts{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &swarmStorage{srv: srv, addr: addr, pattern: pat}, nil
}

// swarmNode is one crowd member: a cache manager over its own temp dir and
// its own storage connection, exporting its cache to the swarm.
type swarmNode struct {
	m      *cachemgr.Manager
	client *rblock.Client
	dir    string
}

func newSwarmNode(st *swarmStorage, tr swarm.Announcer, p SwarmParams) (*swarmNode, error) {
	dir, err := os.MkdirTemp("", "vmicache-swarm-")
	if err != nil {
		return nil, err
	}
	client, err := rblock.Dial(st.addr, 0)
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	m, err := cachemgr.New(cachemgr.Config{
		Dir:                dir,
		Backing:            rblock.RemoteStore{C: client},
		ClusterBits:        p.CacheClusterBits,
		SwarmEnabled:       true,
		SwarmTracker:       tr,
		SwarmMaxPeers:      p.MaxPeers,
		SwarmPrimaryHold:   p.PrimaryHold,
		SwarmFallbackAfter: p.FallbackAfter,
		SwarmRefresh:       p.Refresh,
		Logf:               p.Logf,
	})
	if err != nil {
		client.Close()    //nolint:errcheck // already failing
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	if _, err := m.ServePeers("127.0.0.1:0"); err != nil {
		m.Close()         //nolint:errcheck // already failing
		client.Close()    //nolint:errcheck // already failing
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	return &swarmNode{m: m, client: client, dir: dir}, nil
}

func (n *swarmNode) close() {
	n.m.Close()         //nolint:errcheck // teardown
	n.client.Close()    //nolint:errcheck // teardown
	os.RemoveAll(n.dir) //nolint:errcheck // best-effort cleanup
}

// RunSwarm executes one flash-crowd experiment: a reference single-node warm
// establishes the single-copy storage cost, then Nodes fresh managers warm
// the same image concurrently as a swarm.
func RunSwarm(p SwarmParams) (*SwarmResult, error) {
	p.defaults()
	st, err := newSwarmStorage(p)
	if err != nil {
		return nil, err
	}
	defer st.srv.Close() //nolint:errcheck // teardown

	// Reference: one node, no tracker, no peers — every chunk comes from
	// the storage node, as it would without a swarm.
	ref, err := newSwarmNode(st, nil, p)
	if err != nil {
		return nil, err
	}
	lease, err := ref.m.Acquire("base.img")
	if err != nil {
		ref.close()
		return nil, fmt.Errorf("swarm harness: reference warm: %w", err)
	}
	lease.Release()
	ref.close()
	single := st.srv.Stats().BytesRead
	if single == 0 {
		return nil, fmt.Errorf("swarm harness: reference warm read nothing from storage")
	}

	// The crowd: every node gets its own manager, cache dir, storage
	// connection, and peer exporter; one shared in-process tracker.
	tr := swarm.NewTracker(10*p.Refresh, nil)
	nodes := make([]*swarmNode, p.Nodes)
	for i := range nodes {
		n, err := newSwarmNode(st, &swarm.LocalAnnouncer{T: tr}, p)
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.close()
			}
			return nil, err
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()

	crowdStart := st.srv.Stats().BytesRead
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, p.Nodes)
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *swarmNode) {
			defer wg.Done()
			lease, err := n.m.Acquire("base.img")
			if err == nil {
				lease.Release()
			}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("swarm harness: node %d warm: %w", i, err)
		}
	}

	res := &SwarmResult{
		Nodes:           p.Nodes,
		ImageSize:       p.ImageSize,
		SingleCopyBytes: single,
		StorageBytes:    st.srv.Stats().BytesRead - crowdStart,
		Elapsed:         elapsed,
	}
	for _, n := range nodes {
		s := n.m.Stats()
		res.ChunksPeer += s.SwarmChunksPeer
		res.ChunksStorage += s.SwarmChunksStorage
		res.Reassigned += s.SwarmReassigned
	}

	if p.Verify {
		sess, err := nodes[0].m.Boot("base.img", "verify")
		if err != nil {
			return nil, fmt.Errorf("swarm harness: verify boot: %w", err)
		}
		buf := make([]byte, p.ImageSize)
		err = backend.ReadFull(sess.Chain, buf, 0)
		sess.Close() //nolint:errcheck // read already done
		if err != nil {
			return nil, fmt.Errorf("swarm harness: verify read: %w", err)
		}
		if !bytes.Equal(buf, st.pattern) {
			return nil, fmt.Errorf("swarm harness: node 0 cache content mismatch")
		}
	}
	return res, nil
}

// swarmSteps is the flash-crowd x axis — the crowd sizes the acceptance
// bound is asserted at.
var swarmSteps = []int{8, 32, 64}

// SwarmFlashCrowd runs the flash-crowd experiment across crowd sizes and
// tabulates storage traffic against the single-copy bound. Unlike the
// simulated figures this drives real TCP nodes, so scale shrinks the image
// rather than renormalising: reported ratios are scale-free.
func SwarmFlashCrowd(scale float64) *metrics.Table {
	size := int64(4 * float64(1<<20) * scale)
	if size < 1<<20 {
		size = 1 << 20
	}
	tb := metrics.NewTable("Flash crowd: storage-node traffic vs. crowd size (real TCP swarm)",
		"nodes", "storage MB", "single-copy MB", "ratio", "peer chunks %", "elapsed")
	for _, n := range swarmSteps {
		r, err := RunSwarm(SwarmParams{Nodes: n, ImageSize: size, Seed: expSeed})
		if err != nil {
			panic(err) // experiment harness: config is static, any error is a bug
		}
		peerPct := 0.0
		if tot := r.ChunksPeer + r.ChunksStorage; tot > 0 {
			peerPct = 100 * float64(r.ChunksPeer) / float64(tot)
		}
		tb.AddRow(n, fmt.Sprintf("%.2f", float64(r.StorageBytes)/1e6),
			fmt.Sprintf("%.2f", float64(r.SingleCopyBytes)/1e6),
			fmt.Sprintf("%.2f", r.Ratio()),
			fmt.Sprintf("%.0f%%", peerPct),
			r.Elapsed.Round(time.Millisecond).String())
	}
	return tb
}
