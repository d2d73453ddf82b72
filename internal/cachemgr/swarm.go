package cachemgr

import (
	"fmt"
	"os"
	"sync"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
	"vmicache/internal/swarm"
	"vmicache/internal/zerocopy"
)

// DefaultPeerConcurrency bounds concurrently served peer-transfer opens
// (wholesale pulls and swarm virtual views together). At the cap, opens are
// refused with a retryable "unavailable" status rather than queued, so
// fetching peers reassign to another source instead of convoying.
const DefaultPeerConcurrency = 32

// swarmExport is one image this node serves chunk-wise: either the live cache
// image of an in-flight swarm warm (serve-while-warming) or a published cache
// lazily opened on the first peer request. owned marks images the manager
// opened itself and must close on eviction or shutdown.
type swarmExport struct {
	img   *qcow.Image
	owned bool
}

// registerSwarmExport advertises a live (warming) image under key. From this
// moment peers polling the key's chunk map see the filling cache and can pull
// its valid chunks — serving starts while the warm is still running.
func (m *Manager) registerSwarmExport(key string, img *qcow.Image) {
	m.swarmMu.Lock()
	defer m.swarmMu.Unlock()
	if old := m.swarmExports[key]; old != nil && old.owned {
		old.img.Close() //nolint:errcheck // replaced by a live image
	}
	m.swarmExports[key] = &swarmExport{img: img}
}

// dropSwarmExport withdraws key's export if img is still the one registered.
func (m *Manager) dropSwarmExport(key string, img *qcow.Image) {
	m.swarmMu.Lock()
	defer m.swarmMu.Unlock()
	if ex := m.swarmExports[key]; ex != nil && ex.img == img {
		delete(m.swarmExports, key)
	}
}

// closeSwarmExport drops key's export unconditionally, closing the image if
// the manager owns it (eviction and shutdown path). In-flight peer reads fail
// with an IO status and reassign elsewhere.
func (m *Manager) closeSwarmExport(key string) {
	m.swarmMu.Lock()
	ex := m.swarmExports[key]
	delete(m.swarmExports, key)
	m.swarmMu.Unlock()
	if ex != nil && ex.owned {
		ex.img.Close() //nolint:errcheck // serving handle
	}
}

// swarmImage resolves key to a servable image: a registered live export, or a
// published cache opened read-only on first use. The published open attaches
// no backing — the RangeLocallyValid guard refuses any range that would need
// one, and a published cache is fully valid anyway.
func (m *Manager) swarmImage(key string) (*qcow.Image, error) {
	m.swarmMu.Lock()
	defer m.swarmMu.Unlock()
	if ex := m.swarmExports[key]; ex != nil {
		return ex.img, nil
	}
	if !m.pool.Contains(key) {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, key)
	}
	f, err := m.store.Open(key, true)
	if err != nil {
		return nil, err
	}
	img, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		f.Close() //nolint:errcheck // open failed
		return nil, err
	}
	m.swarmExports[key] = &swarmExport{img: img, owned: true}
	return img, nil
}

// swarmMaps implements rblock.MapSource: OpMap on "swarm:<key>" returns the
// encoded chunk-validity map of the cache behind key. Warming caches answer
// with their current (monotonically growing) validity, so a stale map is a
// safe lower bound on what a subsequent read may touch.
type swarmMaps struct{ m *Manager }

func (sm swarmMaps) EncodedMap(name string) ([]byte, error) {
	key, ok := cutExportPrefix(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	img, err := sm.m.swarmImage(key)
	if err != nil {
		return nil, err
	}
	bits, err := img.ValidChunkBitmap(swarm.ChunkSize)
	if err != nil {
		return nil, err
	}
	return swarm.EncodeBitmap(img.Size(), bits), nil
}

// cutExportPrefix splits a "swarm:<key>" export name.
func cutExportPrefix(name string) (key string, ok bool) {
	const p = swarm.ExportPrefix
	if len(name) <= len(p) || name[:len(p)] != p {
		return "", false
	}
	return name[len(p):], true
}

// swarmFile is the peer-facing virtual view of a cache: reads address the
// image's guest-visible space, and only locally valid ranges are served.
// Anything else returns ErrUnavail — a per-request refusal the fetching side
// treats as "reassign this chunk", never as a broken connection. Validity is
// monotone during a warm, so check-then-read cannot race with invalidation.
type swarmFile struct {
	img     *qcow.Image
	release func()
	once    sync.Once
}

func (f *swarmFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.img.RangeLocallyValid(off, int64(len(p))) {
		return 0, rblock.ErrUnavail
	}
	return f.img.ReadAt(p, off)
}

func (f *swarmFile) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("cachemgr: swarm export is read-only")
}

func (f *swarmFile) Size() (int64, error) { return f.img.Size(), nil }

func (f *swarmFile) Truncate(int64) error {
	return fmt.Errorf("cachemgr: swarm export is read-only")
}

func (f *swarmFile) Sync() error { return nil }

func (f *swarmFile) Close() error {
	f.once.Do(f.release)
	return nil
}

// semFile wraps a served file so closing it releases its peer-concurrency
// slot exactly once.
type semFile struct {
	backend.File
	release func()
	once    sync.Once
}

func (f *semFile) Close() error {
	err := f.File.Close()
	f.once.Do(f.release)
	return err
}

// SysFile forwards descriptor access through the wrapper (interface
// embedding does not promote methods the static type lacks), so published
// caches stay eligible for the rblock sendfile path.
func (f *semFile) SysFile() *os.File {
	if s, ok := f.File.(zerocopy.Filer); ok {
		return s.SysFile()
	}
	return nil
}

// acquirePeerSlot claims a peer-serving slot without blocking; a saturated
// exporter refuses with ErrUnavail so the fetching side retries elsewhere
// instead of queueing behind a convoy.
func (m *Manager) acquirePeerSlot() (release func(), err error) {
	select {
	case m.peerSem <- struct{}{}:
		return func() { <-m.peerSem }, nil
	default:
		return nil, fmt.Errorf("%w: peer-transfer slots exhausted", rblock.ErrUnavail)
	}
}

// PeerDetail is one peer's cumulative transfer record, wholesale pulls and
// swarm chunk reads combined.
type PeerDetail struct {
	Attempts int64  // transfer attempts against this peer
	Failures int64  // attempts that failed
	Bytes    int64  // bytes successfully pulled from this peer
	LastErr  string // most recent failure, empty if none
}

// notePeer folds one wholesale transfer outcome into the per-peer record.
func (m *Manager) notePeer(addr string, bytes int64, err error) {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	d := m.peerDetail[addr]
	if d == nil {
		d = &PeerDetail{}
		m.peerDetail[addr] = d
	}
	d.Attempts++
	if err != nil {
		d.Failures++
		d.LastErr = err.Error()
	} else {
		d.Bytes += bytes
	}
}

// mergePeerStats folds a finished swarm session's per-peer outcomes in.
func (m *Manager) mergePeerStats(stats map[string]swarm.PeerStat) {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	for addr, st := range stats {
		d := m.peerDetail[addr]
		if d == nil {
			d = &PeerDetail{}
			m.peerDetail[addr] = d
		}
		d.Attempts += st.Attempts
		d.Failures += st.Failures
		if st.LastErr != "" {
			d.LastErr = st.LastErr
		}
	}
}

// peerDetails snapshots the per-peer records.
func (m *Manager) peerDetails() map[string]PeerDetail {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	out := make(map[string]PeerDetail, len(m.peerDetail))
	for addr, d := range m.peerDetail {
		out[addr] = *d
	}
	return out
}

// swarmCounts sums finished-warm totals with every in-flight session's live
// counts, so metric scrapes see progress during a warm, not only after it.
func (m *Manager) swarmCounts() swarm.Counts {
	out := swarm.Counts{
		ChunksPeer:    m.stats.swarmChunksPeer.Load(),
		ChunksStorage: m.stats.swarmChunksStorage.Load(),
		BytesPeer:     m.stats.swarmBytesPeer.Load(),
		BytesStorage:  m.stats.swarmBytesStorage.Load(),
		Reassigned:    m.stats.swarmReassigned.Load(),
	}
	m.swarmMu.Lock()
	live := make([]*swarm.Session, 0, len(m.swarmLive))
	for s := range m.swarmLive {
		live = append(live, s)
	}
	m.swarmMu.Unlock()
	for _, s := range live {
		c := s.Counts()
		out.ChunksPeer += c.ChunksPeer
		out.ChunksStorage += c.ChunksStorage
		out.BytesPeer += c.BytesPeer
		out.BytesStorage += c.BytesStorage
		out.Reassigned += c.Reassigned
	}
	return out
}

// swarmWarm builds key's cache by chunk-level multi-source fetch: a fresh
// cache image is chained onto the storage base exactly as corWarm would, but
// its backing is swapped for a swarm Source that routes each chunk to the
// scheduler's pick — a peer's partially warm cache or the storage node — and
// every fetched byte still lands through the normal copy-on-read fill path.
// The warming image is exported immediately, so this node serves the chunks
// it already has while it is still fetching the rest.
func (m *Manager) swarmWarm(base, key, tmpName string) (swarm.Counts, error) {
	var counts swarm.Counts
	chain, err := core.CreateCacheChain(m.ns, core.Locator{Store: storeName, Name: tmpName},
		core.Locator{Store: backingName, Name: base}, m.cfg.Quota, m.cb, core.ChainOpts{WrapFile: m.warmWrap})
	if err != nil {
		return counts, fmt.Errorf("cachemgr: creating cache for %s: %w", base, err)
	}
	ci := chain.Top() // the new cache

	// SwarmSelf may have been defaulted from the exporter's bound address.
	m.mu.Lock()
	self := m.cfg.SwarmSelf
	m.mu.Unlock()
	sess, err := swarm.NewSession(swarm.Config{
		Key:      key,
		Self:     self,
		Size:     ci.Size(),
		Origin:   ci.Backing(),
		Peers:    m.cfg.Peers,
		Tracker:  m.cfg.SwarmTracker,
		Refresh:  m.cfg.SwarmRefresh,
		MaxPeers: m.cfg.SwarmMaxPeers,
		Sched: swarm.SchedConfig{
			PrimaryHold:          m.cfg.SwarmPrimaryHold,
			StorageFallbackAfter: m.cfg.SwarmFallbackAfter,
		},
		Logf: m.cfg.Logf,
	})
	if err != nil {
		chain.Close() //nolint:errcheck // already failing
		return counts, err
	}

	// Swap the chain's backing for the multi-source router and go live:
	// register the (still cold) cache under its future published key and
	// track the session so metric scrapes see live progress.
	orig := ci.Backing()
	ci.SetBacking(sess.Source())
	m.registerSwarmExport(key, ci)
	m.swarmMu.Lock()
	m.swarmLive[sess] = struct{}{}
	m.swarmMu.Unlock()

	m.logf("cachemgr: swarm warm of %s starting (self=%q)", key, self)
	runErr := sess.Run(func(p []byte, off int64) error {
		return backend.ReadFull(chain, p, off)
	})

	ci.SetBacking(orig)
	counts = sess.Counts()
	m.swarmMu.Lock()
	delete(m.swarmLive, sess)
	m.swarmMu.Unlock()
	m.mergePeerStats(sess.PeerStats())
	m.stats.swarmChunksPeer.Add(counts.ChunksPeer)
	m.stats.swarmChunksStorage.Add(counts.ChunksStorage)
	m.stats.swarmBytesPeer.Add(counts.BytesPeer)
	m.stats.swarmBytesStorage.Add(counts.BytesStorage)
	m.stats.swarmReassigned.Add(counts.Reassigned)
	sess.Close()

	// Withdraw the live export before the image closes: peers briefly see
	// "not found" and retry, then the published file re-registers lazily on
	// their next map poll.
	m.dropSwarmExport(key, ci)
	if cerr := chain.Close(); runErr == nil {
		runErr = cerr
	}
	return counts, runErr
}
