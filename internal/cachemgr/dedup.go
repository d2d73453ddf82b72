package cachemgr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/dedup"
	"vmicache/internal/rblock"
)

// The dedup tier: a per-pool content-addressed blob store under
// <Dir>/dedup. Every publication derives a chunk manifest (content-defined
// boundaries → SHA-256 → compressed blobs), so sibling caches share chunk
// storage, evicted caches can be rehydrated locally with zero network
// traffic, and peer transfer becomes manifest-first — fetch only the
// chunks this pool does not already hold, from any cache of any image.

const (
	// dedupDirName is the blob store's subdirectory inside the cache dir.
	dedupDirName = "dedup"

	// retiredSuffix names the manifest kept alive across an explicit
	// Invalidate so the rebuilt image's publication only stores changed
	// chunks; dropped once the replacement commits.
	retiredSuffix = ".prev"
)

// openDedup attaches the blob store when Config.Dedup is set; called by
// New after recovery so the store's opening reclaim sees the final manifest
// set.
func (m *Manager) openDedup() error {
	if !m.cfg.Dedup {
		return nil
	}
	ds, err := dedup.OpenBlobStore(filepath.Join(m.dir, dedupDirName))
	if err != nil {
		return fmt.Errorf("cachemgr: opening dedup store: %w", err)
	}
	m.dstore = ds
	m.dedupReserve()
	return nil
}

// dedupReserve charges the blob store's physical bytes — its pack files,
// dead records included until reclaim returns them — against the pool
// budget. The blob store holds each unique chunk once however many caches
// (pinned or not) reference it, so this is exactly the charge-once
// accounting — summing per-cache manifest sizes would double-count every
// shared chunk. When the reservation alone squeezes out every unpinned
// cache and still does not fit, manifests of caches no longer resident are
// shed (their cache file is already gone; the dedup tier is their only
// remaining cost) until it does.
func (m *Manager) dedupReserve() {
	if m.dstore == nil {
		return
	}
	capacity := m.pool.Capacity()
	for {
		// Shed manifests of non-resident caches while the packs would
		// not fit beside the resident files — shedding first, so the
		// reservation never evicts a live cache to keep blobs of a dead
		// one.
		if capacity > 0 {
			for _, name := range m.dstore.ManifestNames() {
				if m.pool.Used()+m.dstore.UniqueCompBytes() <= capacity {
					break
				}
				if !m.pool.Contains(name) {
					if err := m.dstore.Drop(name); err != nil {
						m.logf("cachemgr: shedding manifest %s: %v", name, err)
					} else {
						m.logf("cachemgr: shed manifest %s under budget pressure", name)
					}
				}
			}
		}
		evicted := m.pool.Reserve(m.dstore.UniqueCompBytes())
		if capacity <= 0 || len(evicted) == 0 {
			return
		}
		// The reservation evicted caches; their manifests are shedding
		// candidates now, so take another pass. Terminates: each round
		// either evicts pool entries (finite) or returns.
	}
}

// dedupPublish derives (or confirms) the chunk manifest of a
// just-published cache file. A file materialized from the manifest that is
// committed under key (from: a rehydration or delta warm) was already hashed
// against it on the way to disk and has not been written since, so there is
// nothing to do. Any other file that meets a committed manifest of its size
// is confirmed by the cheap whole-file hash before the chunking pipeline is
// paid for. Manifest failures are logged, not fatal: the cache file serves
// fine without its dedup tier.
func (m *Manager) dedupPublish(key, pubPath string, from *dedup.Manifest) error {
	if have, ok := m.dstore.Manifest(key); ok && from != nil && have.Checksum == from.Checksum {
		m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
		return nil
	}
	f, err := os.Open(pubPath)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if have, ok := m.dstore.Manifest(key); ok && have.Length == fi.Size() {
		m.stats.dedupImageHashes.Add(1)
		if sum, err := fileChecksum(f, fi.Size()); err == nil && sum == have.Checksum {
			m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
			return nil
		}
	}
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	start := time.Now()
	m.stats.dedupImageHashes.Add(1)
	// The pipeline's workers compress each chunk into its wire blob, so
	// the store lands bytes as-is (PutBuilt) instead of re-deflating.
	man, err := dedup.BuildParallel(f, fi.Size(),
		dedup.BuildOpts{Workers: m.dedupWorkers(), Compress: true},
		func(e dedup.Entry, raw, comp []byte) error {
			if err := m.dstore.PutBuilt(e.Hash, comp, int64(e.Len)); err != nil {
				return err
			}
			held = append(held, e.Hash)
			return nil
		})
	if err != nil {
		return err
	}
	m.stats.dedupBuildDuration.Observe(time.Since(start).Nanoseconds())
	// Committing under the same key replaces a stale manifest (a rebuilt
	// base image: same key, different checksum) while chunks shared across
	// versions survive — only the changed chunks were actually stored.
	if err := m.dstore.Commit(key, man); err != nil {
		return err
	}
	m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
	return nil
}

// dedupWorkers resolves the pipeline parallelism from config.
func (m *Manager) dedupWorkers() int {
	if m.cfg.DedupWorkers > 0 {
		return m.cfg.DedupWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func fileChecksum(f *os.File, size int64) (dedup.Key, error) {
	h := sha256.New()
	bp := dedup.GetStreamBuf()
	defer dedup.PutStreamBuf(bp)
	buf := *bp
	for off := int64(0); off < size; {
		n := int64(len(buf))
		if rem := size - off; rem < n {
			n = rem
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return dedup.Key{}, err
		}
		h.Write(buf[:n]) //nolint:errcheck // hash writes cannot fail
		off += n
	}
	return dedup.Key(h.Sum(nil)), nil
}

// rehydrate rebuilds the cache file for key from locally-held blobs — the
// zero-network path for a cache whose file was evicted while its manifest
// survived. Returns the manifest the temp file was materialized from, nil
// if it was not; on blob corruption the manifest is dropped so the warm
// falls through to the network paths instead of retrying a poisoned rebuild.
func (m *Manager) rehydrate(key, tmpName string) *dedup.Manifest {
	man, ok := m.dstore.Manifest(key)
	if !ok {
		return nil
	}
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	for _, e := range man.Entries {
		if !m.dstore.Stage(e.Hash) {
			m.logf("cachemgr: rehydrating %s: blob missing; dropping manifest", key)
			m.dstore.Drop(key) //nolint:errcheck // best-effort cleanup
			return nil
		}
		held = append(held, e.Hash)
	}
	if _, err := m.materialize(tmpName, man, nil, nil, func() error { return nil }); err != nil {
		m.logf("cachemgr: rehydrating %s: %v; dropping manifest", key, err)
		m.dstore.Drop(key) //nolint:errcheck // best-effort cleanup
		return nil
	}
	return man
}

// deltaHandoffBudget bounds the verified chunk bytes a delta warm keeps for
// its writer when the fetch runs ahead of it: 64 pooled MaxChunk buffers. A
// variable only so a test can force the decode-from-store path.
var deltaHandoffBudget int64 = 8 << 20

// deltaStats is what one delta warm moved and where its time went: fetch and
// stall overlap materialize (create → checksum verified); sync follows it.
type deltaStats struct {
	wire, reused                    int64
	fetch, stall, materialize, sync time.Duration
}

// materialize streams man's content into tmpName through dedup's pipeline
// (every chunk and the whole image hash-verified). fetch, when set, runs
// meanwhile, delivering the missing chunks, and returns once its workers
// have. When the last byte is written the image fsync and commit (the store's
// Commit of man, in a delta warm) run side by side: Commit's flush holds the
// store lock, so it may only start after the last decode, and both are done
// before the caller can publish. A failure removes the temp.
func (m *Manager) materialize(tmpName string, man *dedup.Manifest, missing []dedup.Key,
	fetch func(*dedup.Materializer), commit func() error) (st deltaStats, err error) {
	f, err := m.store.Create(tmpName)
	if err != nil {
		return st, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			m.store.Remove(tmpName) //nolint:errcheck // partial materialization
		}
	}()
	start := time.Now()
	m.stats.dedupImageHashes.Add(1)
	mat := dedup.StartMaterialize(f, man, m.dstore, m.dedupWorkers(), missing, deltaHandoffBudget)
	if fetch != nil {
		fetch(mat)
		st.fetch = time.Since(start)
	}
	if st.stall, err = mat.Wait(); err != nil {
		return st, err
	}
	st.materialize = time.Since(start)
	m.stats.dedupMaterializeDuration.Observe(st.materialize.Nanoseconds())
	committed := make(chan error, 1)
	go func() { committed <- commit() }()
	err = f.Sync()
	if cerr := <-committed; err == nil {
		err = cerr
	}
	st.sync = time.Since(start) - st.materialize
	return st, err
}

// deltaWarm is the manifest-first peer transfer: poll the configured peers
// for key's manifest, diff it against the blobs this pool already holds —
// from any cache of any image — and fetch only the missing chunks,
// compressed, spreading the fetches over every peer that advertises the
// manifest (each holder has every chunk, so unlike the swarm's
// rarest-first partial maps the spread is plain round-robin with
// reassignment on failure). The image materializes while the fetch runs:
// chunks already here are decoded as the missing ones arrive, and an arrival
// is handed to the writer as verified (materialize). The blobs and manifest
// commit before the qcow verification so a publish failure still leaves the
// chunks shared.
func (m *Manager) deltaWarm(key, tmpName string) (man *dedup.Manifest, st deltaStats, err error) {
	type holder struct {
		addr string
		c    *rblock.Client
	}
	var holders []holder
	defer func() {
		for _, h := range holders {
			h.c.Close() //nolint:errcheck // transfer finished or failed
		}
	}()
	for _, addr := range m.cfg.Peers {
		c, derr := rblock.DialRetry(addr, 0, 2, rblock.DefaultBackoff, nil)
		if derr != nil {
			m.notePeer(addr, 0, derr)
			continue
		}
		c.SetTimeout(m.cfg.PeerTimeout)
		enc, ferr := c.FetchManifest(key)
		if ferr != nil {
			if !errors.Is(ferr, rblock.ErrNotFound) && !errors.Is(ferr, rblock.ErrBadRequest) {
				m.notePeer(addr, 0, ferr)
			}
			c.Close() //nolint:errcheck // unusable for this transfer
			continue
		}
		mm, merr := dedup.DecodeManifest(enc)
		if merr != nil || (man != nil && mm.Checksum != man.Checksum) {
			c.Close() //nolint:errcheck // disagreeing or corrupt manifest
			continue
		}
		if man == nil {
			man = mm
		}
		holders = append(holders, holder{addr: addr, c: c})
	}
	if man == nil {
		return nil, st, fmt.Errorf("cachemgr: no peer advertises a manifest for %s", key)
	}
	if capacity := m.pool.Capacity(); capacity > 0 && man.Length > capacity {
		return nil, st, fmt.Errorf("cachemgr: %s (%d bytes) exceeds the node cache budget (%d)", key, man.Length, capacity)
	}

	// Stage what is already here; collect what must move. The holds — and
	// those of chunks that land after a failure — go once the fetch workers
	// have all returned, which materialize waits for.
	var held []dedup.Key
	defer func() { m.dstore.Release(held) }()
	var heldMu sync.Mutex
	seen := make(map[dedup.Key]bool, len(man.Entries))
	var missing []dedup.Key
	var reused int64
	for _, e := range man.Entries {
		if seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		if m.dstore.Stage(e.Hash) {
			held = append(held, e.Hash)
			reused += int64(e.Len)
		} else {
			missing = append(missing, e.Hash)
		}
	}

	// Fetch the delta: workers claim runs of missing hashes and pull each
	// run in one vectored OpChunkBatch round trip, spreading runs
	// round-robin across the manifest holders and reassigning on failure.
	// Batch size adapts to the missing set so small deltas still use every
	// worker, while large ones amortise a round trip over up to 32 chunks
	// (≈4 MiB of max-size blobs, inside the frame cap). The materializer's
	// stop flag, checked in the claim loop, tears the pool down promptly
	// after the first failure — a fetch's or the writer's — instead of
	// letting the survivors drain the cursor.
	workers := m.cfg.SwarmWorkers
	if workers <= 0 {
		workers = 4
	}
	batch := len(missing) / (workers * 2)
	if batch < 1 {
		batch = 1
	}
	if batch > 32 {
		batch = 32
	}
	if n := (len(missing) + batch - 1) / batch; workers > n && n > 0 {
		workers = n
	}
	var next atomic.Int64
	var wireBytes atomic.Int64

	// landRun fetches the head of run from one holder and lands what came
	// back, returning how many chunks it covered. fatal marks errors no
	// other holder can fix (a corrupt transfer, local store failure).
	landRun := func(mat *dedup.Materializer, h holder, run []dedup.Key) (served int, fatal bool, err error) {
		hashes := make([][rblock.HashLen]byte, len(run))
		for j, k := range run {
			hashes[j] = [rblock.HashLen]byte(k)
		}
		blobs, ferr := h.c.FetchChunkBatch(hashes)
		if errors.Is(ferr, rblock.ErrBadRequest) {
			// The peer predates the batch op: fetch the head chunk singly.
			comp, _, cerr := h.c.FetchChunk(hashes[0])
			m.notePeer(h.addr, int64(len(comp)), cerr)
			if cerr != nil {
				return 0, false, cerr
			}
			blobs = [][]byte{comp}
		} else {
			var n int64
			for _, b := range blobs {
				n += int64(len(b))
			}
			m.notePeer(h.addr, n, ferr)
			if ferr != nil {
				return 0, false, ferr
			}
			m.stats.dedupChunkBatches.Add(1)
			m.stats.dedupBatchedChunks.Add(int64(len(blobs)))
		}
		for j, comp := range blobs {
			// Deliver hash-verifies before landing on disk, so a corrupt
			// transfer dies here, takes the stage hold that keeps the chunk
			// alive until release, and hands the bytes to the writer.
			if perr := mat.Deliver(run[j], comp); perr != nil {
				return j, true, perr
			}
			heldMu.Lock()
			held = append(held, run[j])
			heldMu.Unlock()
			wireBytes.Add(int64(len(comp)))
		}
		return len(blobs), false, nil
	}

	fetch := func(mat *dedup.Materializer) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !mat.Stopped() {
					i := int(next.Add(int64(batch))) - batch
					if i >= len(missing) {
						return
					}
					end := i + batch
					if end > len(missing) {
						end = len(missing)
					}
					run := missing[i:end]
					pos, fails := 0, 0
					for pos < len(run) && !mat.Stopped() {
						h := holders[(i/batch+pos+fails)%len(holders)]
						served, fatal, ferr := landRun(mat, h, run[pos:])
						pos += served
						if ferr == nil {
							fails = 0
							continue
						}
						fails++
						if fatal || fails >= len(holders) {
							mat.Abort(fmt.Errorf("cachemgr: chunk %v: %w", run[pos], ferr))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	// Blobs are content-verified as they land and the image against the
	// manifest as it is written; committing both before the qcow publication
	// leaves the chunks shared for the next attempt even if that fails.
	st, err = m.materialize(tmpName, man, missing, fetch, func() error { return m.dstore.Commit(key, man) })
	st.wire, st.reused = wireBytes.Load(), reused
	if err != nil {
		return nil, st, err
	}
	m.stats.dedupDeltaStall.Observe(st.stall.Nanoseconds())
	m.dstore.Drop(key + retiredSuffix) //nolint:errcheck // may not exist
	return man, st, nil
}

// Invalidate drops the published cache and manifest for a rebuilt base
// image. The manifest is retired, not deleted: its chunks stay alive until
// the rebuilt image publishes, so the re-publication stores only the
// chunks that actually changed. Sessions already attached keep serving the
// old bytes through their open handles; new Acquires warm the rebuilt
// base from source. Invalidate holds the key's warm slot while it works, so
// no warm can publish under the key until the old cache is gone.
func (m *Manager) Invalidate(base string) error {
	key := m.KeyFor(base)
	m.mu.Lock()
	for ws := m.warming[key]; ws != nil && !m.closed; ws = m.warming[key] {
		m.mu.Unlock()
		<-ws.done // let the in-flight warm settle; its output is stale
		m.mu.Lock()
	}
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	hold := &warmState{done: make(chan struct{})}
	m.warming[key] = hold
	m.mu.Unlock()
	defer m.settle(key, hold)
	if m.pool.Remove(key) {
		m.swapTables(key, nil)
		m.closeSwarmExport(key)
		if err := os.Remove(filepath.Join(m.dir, key)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		m.logf("cachemgr: invalidated %s", key)
	}
	if m.dstore != nil {
		if man, ok := m.dstore.Manifest(key); ok {
			if err := m.dstore.Commit(key+retiredSuffix, man); err != nil {
				m.logf("cachemgr: retiring manifest %s: %v", key, err)
			}
			if err := m.dstore.Drop(key); err != nil {
				return err
			}
		}
		m.dedupReserve()
	}
	return nil
}

// DedupStats snapshots the blob store; zero when dedup is disabled.
func (m *Manager) DedupStats() dedup.StoreStats {
	if m.dstore == nil {
		return dedup.StoreStats{}
	}
	return m.dstore.Stats()
}

// dedupExport answers peers' OpManifest/OpChunk queries. Manifests are
// advertised only for caches this node could also serve wholesale
// (published and resident); chunks are served by pure content address —
// whichever cache brought them in, that is the cross-image sharing.
type dedupExport struct{ m *Manager }

func (d dedupExport) EncodedManifest(name string) ([]byte, error) {
	if !d.m.pool.Contains(name) {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	man, ok := d.m.dstore.Manifest(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	return man.Encode(), nil
}

func (d dedupExport) ChunkBlob(hash [rblock.HashLen]byte) ([]byte, int64, error) {
	return d.m.dstore.ReadCompressed(dedup.Key(hash))
}
