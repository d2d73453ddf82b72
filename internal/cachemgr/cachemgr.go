// Package cachemgr implements the node-local VM image cache manager — the
// subsystem §3.4 of the paper leaves as future work ("allocation of VMs to
// nodes with an existing warm cache" and "eviction of VMI caches whenever the
// allocated cache space is full"). The simulators (internal/sched,
// internal/cloudsim) model these policies; this package executes them on a
// real node:
//
//   - One cache directory holds published, immutable warm caches, keyed by
//     base-image identity and the (cluster-size, quota) creation parameters.
//   - Concurrent boot sessions for the same base share one cache: the first
//     session warms it through the copy-on-read path, later sessions block on
//     the in-flight warm and then attach read-only (singleflight admission).
//   - Publication is crash-safe: a cache warms into a ".tmp" file, is
//     verified with qcow.Check, synced, and renamed into its published name.
//     A temp file found at startup is a crashed warm and is discarded — it is
//     never served.
//   - Published caches are evicted least-recently-used under the node's disk
//     budget (core.Pool), with leased caches pinned against eviction and the
//     evicted files actually deleted.
//   - On a cold miss the manager first tries to pull the warm cache wholesale
//     from a configured peer node over rblock, falling back to copy-on-read
//     warming from the storage node — taking the storage node off the
//     critical path, as the federated-distribution literature argues.
package cachemgr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/metrics"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
	"vmicache/internal/swarm"
)

const (
	// storeName is the namespace name of the manager's cache directory.
	storeName = "nodecache"
	// scratchName is the namespace name of the per-session CoW scratch.
	scratchName = "scratch"

	// pubSuffix marks published (immutable, verified) cache files.
	pubSuffix = ".vmic"
	// tmpSuffix marks in-progress warms; appended to the published name.
	tmpSuffix = ".tmp"

	// DefaultPeerTimeout bounds each peer-transfer request.
	DefaultPeerTimeout = 10 * time.Second

	// shutdownDrain is how long Close lets the peer exporter drain.
	shutdownDrain = 5 * time.Second
)

// ErrClosed is returned by operations on a closed manager.
var ErrClosed = errors.New("cachemgr: manager closed")

// Config parameterises a Manager.
type Config struct {
	// Dir is the node's cache directory (created if absent). One Manager
	// owns a directory at a time.
	Dir string

	// Budget bounds the total bytes of published caches on this node
	// (<= 0 means unbounded). Eviction is LRU among unpinned caches.
	Budget int64

	// Quota is the per-cache fill quota passed to qcow (0 sizes the quota
	// to hold the whole base plus fill metadata). It is part of the cache
	// key: caches built with different quotas are distinct.
	Quota int64

	// ClusterBits selects the cache images' cluster size (0 means
	// qcow.CacheClusterBits). Also part of the cache key.
	ClusterBits int

	// Subclusters enables the sub-cluster extension on the caches this
	// node builds: cold misses fill at 4 KiB granularity and partially
	// valid clusters are completed before publication. Requires a cluster
	// size of at least 8 KiB (ClusterBits >= 13). Part of the cache key —
	// sub-cluster and whole-cluster caches of the same base are distinct.
	Subclusters bool

	// Backing is the storage node's store holding the base images —
	// typically an rblock.RemoteStore, but any backend.Store works.
	Backing backend.Store

	// BackingName is the namespace name backing-file strings use
	// (default "storage"); cache headers record "<BackingName>:<base>".
	BackingName string

	// Peers lists rblock addresses of peer cache managers tried, in
	// order, before falling back to copy-on-read warming. With
	// SwarmEnabled they are also the static swarm peer set.
	Peers []string

	// PeerTimeout bounds each peer-transfer request (0 means
	// DefaultPeerTimeout).
	PeerTimeout time.Duration

	// PeerConcurrency bounds how many peer-transfer opens this node
	// serves at once (wholesale pulls and swarm chunk views combined;
	// 0 means DefaultPeerConcurrency). At the cap, opens are refused
	// with a retryable "unavailable" status rather than queued, so
	// fetching peers reassign to another source instead of convoying.
	PeerConcurrency int

	// Dedup attaches a content-addressed chunk store (<Dir>/dedup) to the
	// cache lifecycle: every publication derives a chunk manifest, sibling
	// caches share chunk storage, evicted caches rehydrate from local
	// blobs without touching the network, and peer warms become
	// manifest-first — only chunks this pool does not already hold move,
	// compressed. The store's physical bytes (its pack files) are charged
	// against Budget once, however many caches share them.
	Dedup bool

	// DedupWorkers is the chunk hash/compress/decompress parallelism of
	// the dedup pipeline: publication (manifest build), rehydration and
	// delta-warm materialization all spread per-chunk work across this
	// many goroutines (0 means GOMAXPROCS; 1 forces the serial path).
	DedupWorkers int

	// SwarmEnabled switches cold warms from wholesale peer pulls to
	// chunk-level multi-source fetching: each chunk is pulled from
	// whichever peer advertises it (rarest first), falling back to the
	// storage node, and the warming cache serves its valid chunks to
	// other peers while it fills.
	SwarmEnabled bool

	// SwarmSelf is this node's peer-export address exactly as peers dial
	// it. It names this node in tracker announces and rendezvous
	// hashing; empty means fetch-only.
	SwarmSelf string

	// SwarmTracker, when non-nil, is the announce service used for peer
	// discovery (an *swarm.LocalAnnouncer in-process, or a
	// *swarm.TrackerClient over HTTP). Nil relies on the static Peers
	// list.
	SwarmTracker swarm.Announcer

	// SwarmChunkBits selects the swarm transfer chunk size, 1<<bits
	// bytes (0 means DefaultSwarmChunkBits = 64 KiB). All nodes sharing
	// images must agree.
	SwarmChunkBits int

	// SwarmWorkers is the per-warm fetch parallelism (0 means 4).
	SwarmWorkers int

	// SwarmPeerRate caps bytes/s drawn from each peer (0 = unlimited).
	SwarmPeerRate int64

	// SwarmPeerInflight caps in-flight chunks per peer (0 means 4).
	SwarmPeerInflight int

	// SwarmPrimaryHold delays the first storage-node fetch so tracker
	// membership can converge before rendezvous primaries are computed.
	SwarmPrimaryHold time.Duration

	// SwarmFallbackAfter is how long a chunk may starve (no usable peer,
	// not this node's storage primary) before it goes to the storage
	// node anyway (0 means 2s).
	SwarmFallbackAfter time.Duration

	// SwarmMaxPeers bounds how many peers each swarm warm polls and
	// fetches from (0 = unbounded). Large deployments cap the active
	// peer set so map-poll traffic stays O(N·MaxPeers), not O(N²).
	SwarmMaxPeers int

	// SwarmRefresh is the announce + chunk-map poll interval (0 means
	// swarm.DefaultRefresh).
	SwarmRefresh time.Duration

	// WarmSpans are the guest-read spans replayed to warm a cold cache
	// (nil warms the whole base — suitable for small images; production
	// deployments pass a boot profile).
	WarmSpans []core.Span

	// WarmProfile, when non-empty and WarmSpans is nil, selects
	// profile-guided prewarming: the named boot profile (boot.ProfileByName)
	// is scaled to the base's size and its coalesced read footprint
	// becomes the warm plan, so a cold warm fetches the boot working set
	// instead of the whole image.
	WarmProfile string

	// WarmWorkers is ignored: a cold warm batches its backing reads within
	// each plan window (core.Warm) instead of running workers. Kept only
	// for callers that still set it.
	WarmWorkers int

	// WarmBudget is ignored, like WarmWorkers.
	WarmBudget int64

	// ZeroCopy serves peer transfers of published caches with sendfile(2)
	// straight from the cache file to the socket (published caches are
	// immutable 0444 files, exactly the contract the fast path needs).
	// Exports that cannot offer a raw descriptor — swarm chunk views
	// assemble bytes — keep the copy path per request.
	ZeroCopy bool

	// Logf, when non-nil, receives lifecycle events.
	Logf func(format string, args ...any)

	// WrapWarmFile, when non-nil, wraps the temp container during
	// copy-on-read warming — the failure-injection hook the crash tests
	// use (backend.FaultyFile) to kill a warm mid-fill.
	WrapWarmFile func(f backend.File) backend.File

	// Metrics, when non-nil, receives the manager's instruments (and the
	// peer exporter's, once ServePeers runs) under vmicache_cachemgr_*.
	Metrics *metrics.Registry
}

// counters is the live form behind Stats snapshots.
type counters struct {
	coldWarms      atomic.Int64
	warmFailures   atomic.Int64
	peerAttempts   atomic.Int64
	peerFetches    atomic.Int64
	peerFetchBytes atomic.Int64
	peerFallbacks  atomic.Int64
	attaches       atomic.Int64
	sharedWaits    atomic.Int64
	published      atomic.Int64
	discardedTemps atomic.Int64
	droppedCorrupt atomic.Int64

	dedupRehydrations  atomic.Int64
	dedupDeltaWarms    atomic.Int64
	dedupDeltaBytes    atomic.Int64
	dedupReusedBytes   atomic.Int64
	dedupChunkBatches  atomic.Int64 // vectored chunk-fetch round trips
	dedupBatchedChunks atomic.Int64 // chunks that arrived via those batches
	dedupImageHashes   atomic.Int64 // whole-image SHA-256 passes: materialize, confirm, build

	// dedupBuildDuration and dedupMaterializeDuration record the wall time
	// (ns) of manifest builds and image materializations (create → checksum
	// verified) — the two ends of the parallel dedup pipeline. dedupDeltaStall
	// is the part of a delta warm's materialization its in-order writer spent
	// waiting for chunks still on the wire: near the whole duration the warm
	// was network-bound, near zero CPU-bound.
	dedupBuildDuration       metrics.AtomicHistogram
	dedupMaterializeDuration metrics.AtomicHistogram
	dedupDeltaStall          metrics.AtomicHistogram

	swarmWarms         atomic.Int64
	swarmChunksPeer    atomic.Int64
	swarmChunksStorage atomic.Int64
	swarmBytesPeer     atomic.Int64
	swarmBytesStorage  atomic.Int64
	swarmReassigned    atomic.Int64

	// warmDuration records end-to-end successful warm durations (ns),
	// whichever path (peer transfer or copy-on-read) satisfied them.
	warmDuration metrics.AtomicHistogram
}

// Stats is a point-in-time snapshot of the manager's activity.
type Stats struct {
	ColdWarms      int64 // caches warmed through the CoR path
	WarmFailures   int64 // warms that failed (peer and CoR both)
	PeerAttempts   int64 // peer transfers tried
	PeerFetches    int64 // caches pulled wholesale from a peer
	PeerFetchBytes int64 // bytes transferred from peers
	PeerFallbacks  int64 // cold misses where every peer failed
	Attaches       int64 // sessions attached to a published cache
	SharedWaits    int64 // sessions that waited on an in-flight warm
	Published      int64 // successful publications this run
	DiscardedTemps int64 // crashed warms discarded at startup
	DroppedCorrupt int64 // published files failing verification at startup

	DedupRehydrations int64 // caches rebuilt from local blobs, zero network
	DedupDeltaWarms   int64 // caches warmed manifest-first from peers
	DedupDeltaBytes   int64 // compressed bytes actually moved by delta warms
	DedupReusedBytes  int64 // raw bytes delta warms reused from local blobs
	DedupImageHashes  int64 // whole-image SHA-256 passes the dedup tier ran
	Dedup             dedup.StoreStats

	SwarmWarms         int64 // caches warmed through chunk-level swarm fetch
	SwarmChunksPeer    int64 // swarm chunks fetched from peers
	SwarmChunksStorage int64 // swarm chunks fetched from the storage node
	SwarmBytesPeer     int64 // swarm bytes fetched from peers
	SwarmBytesStorage  int64 // swarm bytes fetched from the storage node
	SwarmReassigned    int64 // swarm chunk fetches reassigned after a failure

	PoolHits, PoolMisses, Evictions int64
	Used, Budget                    int64
	Reserved                        int64 // dedup blob bytes charged against the budget
	Resident                        int

	// Peers details every peer this node has transferred from, keyed by
	// address (wholesale pulls and swarm chunk reads combined).
	Peers map[string]PeerDetail
}

// String renders the snapshot for status output.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "caches: %d resident, %d/%d bytes used", s.Resident, s.Used, s.Budget)
	fmt.Fprintf(&b, "\nwarm: %d cold (CoR), %d from peers (%.1f MB), %d peer fallbacks, %d failures",
		s.ColdWarms, s.PeerFetches, float64(s.PeerFetchBytes)/1e6, s.PeerFallbacks, s.WarmFailures)
	if s.Dedup.Manifests > 0 || s.DedupRehydrations+s.DedupDeltaWarms > 0 {
		fmt.Fprintf(&b, "\ndedup: %d manifests, %d blobs, %d/%d unique/logical bytes (%.1f%% shared), %d rehydrations, %d delta warms (%.1f MB wire, %.1f MB reused)",
			s.Dedup.Manifests, s.Dedup.Blobs, s.Dedup.UniqueCompBytes, s.Dedup.LogicalBytes,
			100*float64(s.Dedup.SharedBytes)/float64(max(s.Dedup.LogicalBytes, 1)),
			s.DedupRehydrations, s.DedupDeltaWarms,
			float64(s.DedupDeltaBytes)/1e6, float64(s.DedupReusedBytes)/1e6)
	}
	if s.SwarmWarms > 0 || s.SwarmChunksPeer+s.SwarmChunksStorage > 0 {
		fmt.Fprintf(&b, "\nswarm: %d warms, %d chunks from peers (%.1f MB), %d from storage (%.1f MB), %d reassigned",
			s.SwarmWarms, s.SwarmChunksPeer, float64(s.SwarmBytesPeer)/1e6,
			s.SwarmChunksStorage, float64(s.SwarmBytesStorage)/1e6, s.SwarmReassigned)
	}
	fmt.Fprintf(&b, "\nsessions: %d attaches, %d shared singleflight waits", s.Attaches, s.SharedWaits)
	fmt.Fprintf(&b, "\npool: %d hits, %d misses, %d evictions", s.PoolHits, s.PoolMisses, s.Evictions)
	fmt.Fprintf(&b, "\nrecovery: %d temps discarded, %d corrupt caches dropped", s.DiscardedTemps, s.DroppedCorrupt)
	if len(s.Peers) > 0 {
		addrs := make([]string, 0, len(s.Peers))
		for a := range s.Peers {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, a := range addrs {
			d := s.Peers[a]
			fmt.Fprintf(&b, "\npeer %s: %d attempts, %d failures, %.1f MB", a, d.Attempts, d.Failures, float64(d.Bytes)/1e6)
			if d.LastErr != "" {
				fmt.Fprintf(&b, ", last error: %s", d.LastErr)
			}
		}
	}
	return b.String()
}

// warmState is one in-flight singleflight warm.
type warmState struct {
	done chan struct{}
	err  error // valid after done is closed
}

// Manager owns one node's cache directory.
type Manager struct {
	cfg         Config
	dir         string
	cb          int
	backingName string
	store       *backend.DirStore
	scratch     *backend.MemStore
	ns          *core.Namespace
	pool        *core.Pool

	// dstore is the content-addressed chunk store, nil unless Config.Dedup.
	dstore *dedup.BlobStore

	mu       sync.Mutex
	warming  map[string]*warmState
	closed   bool
	exporter *rblock.Server
	// tables holds each resident published cache's shared table set (admit).
	tables map[string]*qcow.Tables

	// peerSem bounds concurrently served peer-transfer opens.
	peerSem chan struct{}

	// swarmMu guards the chunk-wise export registry and live sessions.
	swarmMu      sync.Mutex
	swarmExports map[string]*swarmExport
	swarmLive    map[*swarm.Session]struct{}

	// peerMu guards the per-peer transfer records.
	peerMu     sync.Mutex
	peerDetail map[string]*PeerDetail

	stats counters
}

// New opens (or creates) the cache directory, discards crashed warms,
// verifies surviving published caches, and seeds the LRU pool with them in
// modification-time order (oldest least recently used).
func New(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("cachemgr: Config.Dir is required")
	}
	if cfg.Backing == nil {
		return nil, errors.New("cachemgr: Config.Backing is required")
	}
	cb := cfg.ClusterBits
	if cb == 0 {
		cb = qcow.CacheClusterBits
	}
	if cfg.Subclusters && cb < qcow.SubclusterBits+1 {
		return nil, fmt.Errorf("cachemgr: subclusters need ClusterBits >= %d (got %d)",
			qcow.SubclusterBits+1, cb)
	}
	backingName := cfg.BackingName
	if backingName == "" {
		backingName = "storage"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	store, err := backend.NewDirStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	scratch := backend.NewMemStore()
	ns := core.NewNamespace(storeName, store)
	ns.Register(backingName, cfg.Backing)
	ns.Register(scratchName, scratch)

	peerSlots := cfg.PeerConcurrency
	if peerSlots <= 0 {
		peerSlots = DefaultPeerConcurrency
	}
	m := &Manager{
		cfg:          cfg,
		dir:          cfg.Dir,
		cb:           cb,
		backingName:  backingName,
		store:        store,
		scratch:      scratch,
		ns:           ns,
		pool:         core.NewPool(cfg.Budget),
		warming:      make(map[string]*warmState),
		tables:       make(map[string]*qcow.Tables),
		peerSem:      make(chan struct{}, peerSlots),
		swarmExports: make(map[string]*swarmExport),
		swarmLive:    make(map[*swarm.Session]struct{}),
		peerDetail:   make(map[string]*PeerDetail),
	}
	m.pool.OnEvict = func(name string, size int64) {
		m.swapTables(name, nil)
		m.closeSwarmExport(name)
		if err := os.Remove(filepath.Join(m.dir, name)); err != nil {
			m.logf("cachemgr: evicting %s: %v", name, err)
			return
		}
		m.logf("cachemgr: evicted %s (%d bytes)", name, size)
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	if err := m.openDedup(); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		m.registerMetrics(cfg.Metrics)
	}
	return m, nil
}

// registerMetrics exposes the manager's counters, the pool's state, and the
// warm-duration histogram. All instruments sample live atomics (or take the
// pool mutex briefly) at scrape time; the admission and data paths are
// untouched.
func (m *Manager) registerMetrics(r *metrics.Registry) {
	s := &m.stats
	var l metrics.Labels
	r.CounterFunc("vmicache_cachemgr_cold_warms_total",
		"Caches warmed through the copy-on-read path.", l, s.coldWarms.Load)
	r.CounterFunc("vmicache_cachemgr_warm_failures_total",
		"Warms that failed (peer and copy-on-read both).", l, s.warmFailures.Load)
	r.CounterFunc("vmicache_cachemgr_peer_attempts_total",
		"Peer transfers tried.", l, s.peerAttempts.Load)
	r.CounterFunc("vmicache_cachemgr_peer_fetches_total",
		"Caches pulled wholesale from a peer.", l, s.peerFetches.Load)
	r.CounterFunc("vmicache_cachemgr_peer_fetch_bytes_total",
		"Bytes transferred from peers.", l, s.peerFetchBytes.Load)
	r.CounterFunc("vmicache_cachemgr_peer_fallbacks_total",
		"Cold misses where every peer failed.", l, s.peerFallbacks.Load)
	r.CounterFunc("vmicache_cachemgr_attaches_total",
		"Sessions attached to a published cache.", l, s.attaches.Load)
	r.CounterFunc("vmicache_cachemgr_shared_waits_total",
		"Sessions that waited on an in-flight warm (singleflight followers).", l, s.sharedWaits.Load)
	r.CounterFunc("vmicache_cachemgr_published_total",
		"Successful cache publications this run.", l, s.published.Load)
	r.CounterFunc("vmicache_cachemgr_discarded_temps_total",
		"Crashed warms discarded at startup.", l, s.discardedTemps.Load)
	r.CounterFunc("vmicache_cachemgr_dropped_corrupt_total",
		"Published files failing verification at startup.", l, s.droppedCorrupt.Load)
	r.CounterFunc("vmicache_cachemgr_pool_hits_total",
		"Cache-pool lookups that found a resident cache.", l,
		func() int64 { h, _, _ := m.pool.Stats(); return h })
	r.CounterFunc("vmicache_cachemgr_pool_misses_total",
		"Cache-pool lookups that missed.", l,
		func() int64 { _, mi, _ := m.pool.Stats(); return mi })
	r.CounterFunc("vmicache_cachemgr_evictions_total",
		"Caches evicted by the LRU budget.", l,
		func() int64 { _, _, e := m.pool.Stats(); return e })
	r.GaugeFunc("vmicache_cachemgr_used_bytes",
		"Bytes of published caches currently on disk.", l, m.pool.Used)
	r.GaugeFunc("vmicache_cachemgr_budget_bytes",
		"Configured cache budget.", l, m.pool.Capacity)
	r.GaugeFunc("vmicache_cachemgr_resident_caches",
		"Published caches currently resident.", l,
		func() int64 { return int64(m.pool.Len()) })
	r.GaugeFunc("vmicache_cachemgr_pinned_caches",
		"Resident caches pinned by at least one lease.", l,
		func() int64 { return int64(m.pool.Pinned()) })
	r.RegisterHistogram("vmicache_cachemgr_warm_duration_ns",
		"End-to-end duration of successful warms (peer or copy-on-read).", l, &s.warmDuration)

	if m.dstore != nil {
		r.CounterFunc("vmicache_dedup_rehydrations_total",
			"Caches rebuilt from locally-held chunks with zero network traffic.", l,
			s.dedupRehydrations.Load)
		r.CounterFunc("vmicache_dedup_delta_warms_total",
			"Caches warmed manifest-first from peers.", l, s.dedupDeltaWarms.Load)
		r.CounterFunc("vmicache_dedup_delta_bytes_total",
			"Compressed bytes actually moved by delta warms.", l, s.dedupDeltaBytes.Load)
		r.CounterFunc("vmicache_dedup_reused_bytes_total",
			"Raw bytes delta warms reused from chunks already held.", l, s.dedupReusedBytes.Load)
		r.CounterFunc("vmicache_dedup_chunk_batches_total",
			"Vectored chunk-fetch round trips issued by delta warms.", l,
			s.dedupChunkBatches.Load)
		r.CounterFunc("vmicache_dedup_chunk_batch_chunks_total",
			"Chunks that arrived through vectored batch fetches.", l,
			s.dedupBatchedChunks.Load)
		r.CounterFunc("vmicache_dedup_image_hashes_total",
			"Whole-image SHA-256 passes run by the dedup tier (materialize, confirm, build).", l,
			s.dedupImageHashes.Load)
		r.RegisterHistogram("vmicache_dedup_build_duration_ns",
			"Wall time of chunk-manifest builds (publication pipeline).", l,
			&s.dedupBuildDuration)
		r.RegisterHistogram("vmicache_dedup_materialize_duration_ns",
			"Wall time of image materializations from blobs (rehydrate/delta).", l,
			&s.dedupMaterializeDuration)
		r.RegisterHistogram("vmicache_dedup_delta_stall_ns",
			"Time a delta warm's in-order writer waited for chunks not yet fetched.", l,
			&s.dedupDeltaStall)
		r.GaugeFunc("vmicache_dedup_manifests",
			"Chunk manifests held by the blob store.", l,
			func() int64 { return int64(m.dstore.Stats().Manifests) })
		r.GaugeFunc("vmicache_dedup_blobs",
			"Unique chunks held by the blob store.", l,
			func() int64 { return int64(m.dstore.Stats().Blobs) })
		r.GaugeFunc("vmicache_dedup_logical_bytes",
			"Sum of manifest lengths (bytes the caches would use unshared).", l,
			func() int64 { return m.dstore.Stats().LogicalBytes })
		r.GaugeFunc("vmicache_dedup_unique_bytes",
			"Bytes the blob store's packs occupy on disk.", l,
			m.dstore.UniqueCompBytes)
		r.GaugeFunc("vmicache_dedup_shared_bytes",
			"Logical bytes deduplicated away by chunk sharing.", l,
			func() int64 { return m.dstore.Stats().SharedBytes })
		r.GaugeFunc("vmicache_dedup_ratio_percent",
			"Shared bytes as a percentage of logical bytes.", l,
			func() int64 {
				st := m.dstore.Stats()
				if st.LogicalBytes == 0 {
					return 0
				}
				return 100 * st.SharedBytes / st.LogicalBytes
			})
	}

	r.CounterFunc("vmicache_swarm_warms_total",
		"Caches warmed through chunk-level swarm fetch.", l, s.swarmWarms.Load)
	r.CounterFunc("vmicache_swarm_chunks_total",
		"Swarm chunks fetched from peers.", metrics.Labels{"source": "peer"},
		func() int64 { return m.swarmCounts().ChunksPeer })
	r.CounterFunc("vmicache_swarm_chunks_total",
		"Swarm chunks fetched from the storage node.", metrics.Labels{"source": "storage"},
		func() int64 { return m.swarmCounts().ChunksStorage })
	r.CounterFunc("vmicache_swarm_bytes_total",
		"Swarm bytes fetched from peers.", metrics.Labels{"source": "peer"},
		func() int64 { return m.swarmCounts().BytesPeer })
	r.CounterFunc("vmicache_swarm_bytes_total",
		"Swarm bytes fetched from the storage node.", metrics.Labels{"source": "storage"},
		func() int64 { return m.swarmCounts().BytesStorage })
	r.CounterFunc("vmicache_swarm_reassigned_total",
		"Swarm chunk fetches reassigned after a source failure.", l,
		func() int64 { return m.swarmCounts().Reassigned })
	r.GaugeFunc("vmicache_swarm_exports",
		"Images currently served chunk-wise to peers.", l,
		func() int64 {
			m.swarmMu.Lock()
			defer m.swarmMu.Unlock()
			return int64(len(m.swarmExports))
		})
}

func (m *Manager) logf(format string, args ...any) { m.cfg.Logf(format, args...) }

// Dir reports the managed cache directory.
func (m *Manager) Dir() string { return m.dir }

// recover scans the cache directory after a (possible) crash: temp files are
// partially-warmed caches whose publication never happened — discarded, never
// served. Published files are re-verified; any that fail qcow.Check (torn
// writes under the rename, bit rot) are dropped. Survivors seed the pool.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	type pub struct {
		name  string
		size  int64
		mtime time.Time
	}
	var pubs []pub
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, pubSuffix+tmpSuffix):
			if err := os.Remove(filepath.Join(m.dir, name)); err != nil {
				return fmt.Errorf("cachemgr: discarding crashed warm %s: %w", name, err)
			}
			m.stats.discardedTemps.Add(1)
			m.logf("cachemgr: discarded crashed warm %s", name)
		case strings.HasSuffix(name, pubSuffix):
			fi, err := e.Info()
			if err != nil {
				return err
			}
			if err := m.verifyPublished(name); err != nil {
				if rmErr := os.Remove(filepath.Join(m.dir, name)); rmErr != nil {
					return fmt.Errorf("cachemgr: dropping corrupt cache %s: %w", name, rmErr)
				}
				m.stats.droppedCorrupt.Add(1)
				m.logf("cachemgr: dropped corrupt cache %s: %v", name, err)
				continue
			}
			pubs = append(pubs, pub{name: name, size: fi.Size(), mtime: fi.ModTime()})
		}
	}
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].mtime.Before(pubs[j].mtime) })
	for _, p := range pubs {
		if _, ok := m.admit(p.name, qcow.NewTables(), p.size, false); !ok {
			// Larger than the whole budget: cannot be kept.
			os.Remove(filepath.Join(m.dir, p.name)) //nolint:errcheck // best-effort drop
			m.logf("cachemgr: dropped %s (%d bytes exceeds budget %d)", p.name, p.size, m.cfg.Budget)
		}
	}
	return nil
}

// admit pools a published cache under table set t, installed first: an
// empty one at recovery (a session fills it), the one its verify filled at
// publish. With pin it is admitted pinned, for a lease on that set (publish).
func (m *Manager) admit(key string, t *qcow.Tables, size int64, pin bool) (evicted []string, ok bool) {
	m.swapTables(key, t)
	add := m.pool.Add
	if pin {
		add = m.pool.AddPinned
	}
	if evicted, ok = add(key, size); !ok {
		m.swapTables(key, nil)
		return nil, false
	}
	return evicted, true
}

// swapTables installs t as key's set (nil forgets it) and retires the old
// one; a leaving cache drops its set before its file is removed.
func (m *Manager) swapTables(key string, t *qcow.Tables) {
	m.mu.Lock()
	old := m.tables[key]
	if t != nil {
		m.tables[key] = t
	} else {
		delete(m.tables, key)
	}
	m.mu.Unlock()
	if old != nil {
		old.Retire()
	}
}

// verifyPublished runs the full consistency check on a published cache.
func (m *Manager) verifyPublished(name string) error {
	f, err := m.store.Open(name, true)
	if err != nil {
		return err
	}
	img, err := qcow.OpenVerified(f, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		return err // OpenVerified closed f
	}
	return img.Close()
}

// KeyFor derives the published cache name for a base image under this
// manager's creation parameters. Managers with the same (cluster-size,
// quota, sub-cluster) configuration derive the same key, which is what makes
// peer transfer work: the key is the wire name of the export.
func (m *Manager) KeyFor(base string) string {
	sc := ""
	if m.cfg.Subclusters {
		sc = "-sc"
	}
	return fmt.Sprintf("%s-cb%d-q%d%s%s", sanitize(base), m.cb, m.cfg.Quota, sc, pubSuffix)
}

// sanitize maps a base-image name to a filesystem- and wire-safe token.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// Lease pins a published cache for one boot session; the cache cannot be
// evicted until every lease on it is released.
type Lease struct {
	m      *Manager
	key    string
	tables *qcow.Tables // the pinned cache's shared table set
	once   sync.Once
}

// Key reports the published cache name the lease pins.
func (l *Lease) Key() string { return l.key }

// Locator reports the cache's position in the manager's namespace.
func (l *Lease) Locator() core.Locator { return core.Locator{Store: storeName, Name: l.key} }

// Release unpins the cache. Releasing twice is a no-op.
func (l *Lease) Release() { l.release() }

// release unpins the cache unless Invalidate removed it under the lease (a
// pinned cache is never evicted), and reports whether it did. The lease's
// table set names the instance its pin belongs to.
func (l *Lease) release() (invalidated bool) {
	l.once.Do(func() {
		l.m.mu.Lock()
		defer l.m.mu.Unlock()
		if invalidated = l.m.tables[l.key] != l.tables; !invalidated {
			l.m.pool.Unpin(l.key)
		}
	})
	return invalidated
}

// Acquire returns a lease on the warm cache for base, warming it first if
// needed. Concurrent calls for the same base perform exactly one warm: the
// first caller becomes the warmer and leaves with the lease its publication
// pinned, the rest wait on its outcome and then attach to the published cache
// (singleflight admission). A waiter that finds the cache gone again — evicted
// or invalidated since — waits for the next warm or becomes the warmer: it
// retries once per newer publication of the key, and the warmer never needs
// a retry, so no fixed attempt count bounds it.
func (m *Manager) Acquire(base string) (*Lease, error) {
	key := m.KeyFor(base)
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if ws := m.warming[key]; ws != nil {
			m.mu.Unlock()
			m.stats.sharedWaits.Add(1)
			<-ws.done
			if ws.err != nil {
				return nil, ws.err
			}
			continue // published by the warmer; attach on the next pass
		}
		if m.pool.Lookup(key) && m.pool.Pin(key) {
			lease := &Lease{m: m, key: key, tables: m.tables[key]}
			m.mu.Unlock()
			m.stats.attaches.Add(1)
			return lease, nil
		}
		ws := &warmState{done: make(chan struct{})}
		m.warming[key] = ws
		m.mu.Unlock()

		warmStart := time.Now()
		lease, err := m.warm(base, key)
		ws.err = err
		if err == nil {
			m.stats.warmDuration.Observe(time.Since(warmStart).Nanoseconds())
		}
		m.settle(key, ws)
		if err != nil {
			m.stats.warmFailures.Add(1)
			return nil, err
		}
		m.stats.attaches.Add(1)
		return lease, nil
	}
}

// settle ends ws's hold on key's warm slot and wakes its waiters.
func (m *Manager) settle(key string, ws *warmState) {
	m.mu.Lock()
	delete(m.warming, key)
	m.mu.Unlock()
	close(ws.done)
}

// Session is one VM boot attached to a shared cache: a private CoW image
// chained onto the published cache, which is in turn chained onto the
// storage node's base.
type Session struct {
	// Chain serves the session's guest I/O; [0] is the private CoW top.
	Chain *core.Chain

	m       *Manager
	lease   *Lease
	cowName string
	closed  bool
}

// Boot acquires the warm cache for base and opens a boot session on it.
// vmID distinguishes concurrent sessions for the same base. A cache
// invalidated between the Acquire and the attach is acquired once more.
func (m *Manager) Boot(base, vmID string) (*Session, error) {
	for retried := false; ; retried = true {
		lease, err := m.Acquire(base)
		if err != nil {
			return nil, err
		}
		sess, err := m.attach(lease, vmID)
		if err == nil {
			return sess, nil
		}
		if !lease.release() || retried {
			return nil, err
		}
	}
}

// attach opens a boot session on the leased cache. The CoW top is sized from
// the cache's table set; only the set's first attach reads the cache header
// for it.
func (m *Manager) attach(lease *Lease, vmID string) (*Session, error) {
	cacheLoc := lease.Locator()
	size, ok := lease.tables.VirtualSize()
	if !ok {
		var err error
		if size, err = core.VirtualSizeOf(m.ns, cacheLoc); err != nil {
			return nil, err
		}
	}
	cowName := sanitize(vmID) + "-" + lease.key + ".cow"
	if err := core.CreateCoW(m.ns, core.Locator{Store: scratchName, Name: cowName}, cacheLoc, size, 0); err != nil {
		return nil, err
	}
	// BackingReadOnly: the published cache is immutable — attach without
	// the §4.3 read-write probe, which its file permissions would reject.
	chain, err := core.OpenChain(m.ns, core.Locator{Store: scratchName, Name: cowName},
		core.ChainOpts{BackingReadOnly: true, Tables: lease.tables})
	if err != nil {
		m.scratch.Remove(cowName) //nolint:errcheck // unwinding
		return nil, err
	}
	return &Session{Chain: chain, m: m, lease: lease, cowName: cowName}, nil
}

// Close tears the session down: the chain closes, the private CoW image is
// deleted, and the cache lease is released.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.Chain.Close()
	s.m.scratch.Remove(s.cowName) //nolint:errcheck // scratch is ephemeral
	s.lease.Release()
	return err
}

// Stats returns a snapshot of the manager's activity.
func (m *Manager) Stats() Stats {
	hits, misses, evictions := m.pool.Stats()
	sc := m.swarmCounts()
	return Stats{
		DedupRehydrations: m.stats.dedupRehydrations.Load(),
		DedupDeltaWarms:   m.stats.dedupDeltaWarms.Load(),
		DedupDeltaBytes:   m.stats.dedupDeltaBytes.Load(),
		DedupReusedBytes:  m.stats.dedupReusedBytes.Load(),
		DedupImageHashes:  m.stats.dedupImageHashes.Load(),
		Dedup:             m.DedupStats(),

		SwarmWarms:         m.stats.swarmWarms.Load(),
		SwarmChunksPeer:    sc.ChunksPeer,
		SwarmChunksStorage: sc.ChunksStorage,
		SwarmBytesPeer:     sc.BytesPeer,
		SwarmBytesStorage:  sc.BytesStorage,
		SwarmReassigned:    sc.Reassigned,
		Peers:              m.peerDetails(),

		ColdWarms:      m.stats.coldWarms.Load(),
		WarmFailures:   m.stats.warmFailures.Load(),
		PeerAttempts:   m.stats.peerAttempts.Load(),
		PeerFetches:    m.stats.peerFetches.Load(),
		PeerFetchBytes: m.stats.peerFetchBytes.Load(),
		PeerFallbacks:  m.stats.peerFallbacks.Load(),
		Attaches:       m.stats.attaches.Load(),
		SharedWaits:    m.stats.sharedWaits.Load(),
		Published:      m.stats.published.Load(),
		DiscardedTemps: m.stats.discardedTemps.Load(),
		DroppedCorrupt: m.stats.droppedCorrupt.Load(),
		PoolHits:       hits,
		PoolMisses:     misses,
		Evictions:      evictions,
		Used:           m.pool.Used(),
		Budget:         m.pool.Capacity(),
		Reserved:       m.pool.Reserved(),
		Resident:       m.pool.Len(),
	}
}

// Close shuts the manager down: new Acquires fail, and the peer exporter (if
// serving) drains gracefully.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	exp := m.exporter
	sets := m.tables
	m.tables = make(map[string]*qcow.Tables)
	m.mu.Unlock()
	// Retired, a set unmaps its file once its last session has closed.
	for _, t := range sets {
		t.Retire()
	}

	// Close any published caches held open for chunk-wise serving.
	m.swarmMu.Lock()
	exports := m.swarmExports
	m.swarmExports = make(map[string]*swarmExport)
	m.swarmMu.Unlock()
	for _, ex := range exports {
		if ex.owned {
			ex.img.Close() //nolint:errcheck // teardown
		}
	}

	var err error
	if exp != nil {
		err = exp.Shutdown(shutdownDrain)
	}
	// After the exporter has drained: peers read chunks out of the packs.
	if m.dstore != nil {
		if cerr := m.dstore.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
