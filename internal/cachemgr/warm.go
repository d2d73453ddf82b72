package cachemgr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/dedup"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// warm produces the published cache for base under key. With SwarmEnabled it
// fetches chunk-level from whichever peers advertise each chunk (serving its
// own progress back to them meanwhile); otherwise it tries each configured
// peer wholesale — pulling the already-warm cache over rblock keeps the
// storage node off the critical path entirely — and falls back to
// copy-on-read warming from the storage node. Either way the result passes
// through publish: verify, sync, rename, and admission pinned for the lease
// it returns.
func (m *Manager) warm(base, key string) (*Lease, error) {
	tmpName := key + tmpSuffix
	// A stale temp here is a previous failed warm; it was never published
	// and is safe to overwrite.
	m.store.Remove(tmpName) //nolint:errcheck // may not exist

	if m.dstore != nil {
		// Cheapest first: an evicted cache whose manifest survived rebuilds
		// from local blobs without touching the network.
		if man := m.rehydrate(key, tmpName); man != nil {
			if lease, err := m.publish(key, man); err == nil {
				m.stats.dedupRehydrations.Add(1)
				m.logf("cachemgr: rehydrated %s from local chunks", key)
				return lease, nil
			} else {
				m.logf("cachemgr: rehydration of %s failed verification: %v", key, err)
			}
			m.store.Remove(tmpName) //nolint:errcheck // reset for the fallback
		}
		// Manifest-first peer transfer: fetch only the chunks this pool
		// does not already hold, from any peer advertising the manifest.
		if len(m.cfg.Peers) > 0 {
			man, st, err := m.deltaWarm(key, tmpName)
			if err == nil {
				var lease *Lease
				if lease, err = m.publish(key, man); err == nil {
					m.stats.dedupDeltaWarms.Add(1)
					m.stats.dedupDeltaBytes.Add(st.wire)
					m.stats.dedupReusedBytes.Add(st.reused)
					ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
					m.logf("cachemgr: delta-warmed %s: %.1f MB over the wire, %.1f MB reused locally, "+
						"%.1f MB from resident caches (fetch %.1f ms, writer stalled %.1f ms, materialize %.1f ms, commit %.1f ms)",
						key, float64(st.wire)/1e6, float64(st.reused)/1e6, float64(st.resident)/1e6,
						ms(st.fetch), ms(st.stall), ms(st.materialize), ms(st.commit))
					return lease, nil
				}
				m.logf("cachemgr: delta warm of %s failed verification: %v", key, err)
			} else {
				m.logf("cachemgr: delta warm of %s: %v; falling back", key, err)
			}
			m.store.Remove(tmpName) //nolint:errcheck // reset for the fallback
		}
	}

	if m.cfg.SwarmEnabled {
		counts, err := m.swarmWarm(base, key, tmpName)
		if err == nil {
			var lease *Lease
			if lease, err = m.publish(key, nil); err == nil {
				m.stats.swarmWarms.Add(1)
				m.logf("cachemgr: swarm-warmed %s: %d chunks from peers (%.1f MB), %d from storage (%.1f MB), %d reassigned",
					key, counts.ChunksPeer, float64(counts.BytesPeer)/1e6,
					counts.ChunksStorage, float64(counts.BytesStorage)/1e6, counts.Reassigned)
				return lease, nil
			}
			m.logf("cachemgr: swarm warm of %s failed verification: %v", key, err)
		} else {
			m.logf("cachemgr: swarm warm of %s: %v; falling back", key, err)
		}
		m.store.Remove(tmpName) //nolint:errcheck // reset for the fallback
	}

	for _, peer := range m.cfg.Peers {
		m.stats.peerAttempts.Add(1)
		n, err := m.fetchFromPeer(peer, key, tmpName)
		m.notePeer(peer, n, err)
		if err == nil {
			var lease *Lease
			if lease, err = m.publish(key, nil); err == nil {
				m.stats.peerFetches.Add(1)
				m.stats.peerFetchBytes.Add(n)
				m.logf("cachemgr: pulled %s (%d bytes) from peer %s", key, n, peer)
				return lease, nil
			}
			m.logf("cachemgr: peer copy of %s failed verification: %v", key, err)
		} else {
			m.logf("cachemgr: peer %s: %v", peer, err)
		}
		m.store.Remove(tmpName) //nolint:errcheck // reset for the next attempt
	}
	if len(m.cfg.Peers) > 0 {
		m.stats.peerFallbacks.Add(1)
	}

	if err := m.corWarm(base, tmpName); err != nil {
		// Leave the temp in place, exactly as a crash would: the next
		// warm overwrites it and a restart discards it. It is never
		// served, because attach only consults published names.
		return nil, err
	}
	lease, err := m.publish(key, nil)
	if err != nil {
		return nil, err
	}
	m.stats.coldWarms.Add(1)
	m.logf("cachemgr: warmed %s through copy-on-read", key)
	return lease, nil
}

// fetchFromPeer streams the published cache key from a peer manager's rblock
// export into the local temp file, leaving its fsync to publish. Returns bytes
// transferred. A cache the peer says exceeds the node's whole budget is
// refused before the temp exists. Dialing retries with capped exponential
// backoff: a peer restarting or still binding its listener is a transient,
// not a reason to burn the whole attempt.
func (m *Manager) fetchFromPeer(addr, key, tmpName string) (int64, error) {
	c, err := rblock.DialRetry(addr, 3, rblock.DefaultBackoff, nil)
	if err != nil {
		return 0, err
	}
	defer c.Close() //nolint:errcheck // transfer already finished or failed
	c.SetTimeout(DefaultPeerTimeout)
	return backend.StreamFile(m.store, tmpName, rblock.RemoteStore{C: c}, key, m.pool.Capacity())
}

// corWarm creates a cache image in the temp file on top of the storage
// node's base, and warms it with the plan's spans: the cache fills itself
// from the base through its copy-on-read fill path, as a first boot would,
// one plan window per batched fetch and commit.
func (m *Manager) corWarm(base, tmpName string) error {
	chain, err := core.CreateCacheChain(m.ns, core.Locator{Store: storeName, Name: tmpName},
		core.Locator{Store: backingName, Name: base}, m.cfg.Quota, m.cb, core.ChainOpts{WrapFile: m.warmWrap})
	if err != nil {
		return fmt.Errorf("cachemgr: creating cache for %s: %w", base, err)
	}
	baseSize := chain.Size()
	spans := m.cfg.WarmSpans
	if spans == nil && m.cfg.WarmProfile != "" {
		spans, err = core.ProfileSpans(m.cfg.WarmProfile, baseSize)
		if err != nil {
			chain.Close() //nolint:errcheck // already failing
			return fmt.Errorf("cachemgr: warm profile %q: %w", m.cfg.WarmProfile, err)
		}
	}
	if spans == nil {
		spans = fullSpans(baseSize)
	}
	if _, err := core.Warm(chain, spans); err != nil {
		chain.Close() //nolint:errcheck // already failing
		return err
	}
	return chain.Close()
}

// warmWrap wraps the warming temp container (chain depth 0) — outermost
// in noSync, inside that in the test failure-injection hook — and leaves the
// backing alone. Both warms that use it, corWarm and swarmWarm, create the
// temp through it and end in publish, whose fsync is the temp's one.
func (m *Manager) warmWrap(_ core.Locator, f backend.File, depth int) backend.File {
	if depth != 0 {
		return f
	}
	if m.cfg.WrapWarmFile != nil {
		f = m.cfg.WrapWarmFile(f)
	}
	return noSync{f}
}

// noSync is a warming temp as its chain sees it: Sync does nothing, so the
// chain's Close stamps the cache's used size but does not fsync. publish
// fsyncs the temp beside its verify, and the rename waits for that fsync.
// The writeback hint of each committed window still reaches the file.
type noSync struct{ backend.File }

func (noSync) Sync() error { return nil }

func (f noSync) StartWriteback(off, n int64) {
	if wb, ok := f.File.(interface{ StartWriteback(off, n int64) }); ok {
		wb.StartWriteback(off, n)
	}
}

// openTemp opens a warmed temp for publish; tests swap it to watch or fault it.
var openTemp = func(path string, ro bool) (backend.File, error) { return backend.OpenOSFile(path, ro) }

// publish is the crash-safe commit point: verify the warmed temp with a full
// qcow.Check while its fsync — the temp's only one after its creation — runs,
// and only when both succeeded mark it immutable, rename it into the
// published name, and sync the directory so the rename is durable. Only then
// does the cache enter the pool and become attachable — admitted pinned, for
// the lease publish returns, under the table set the verify filled — so no
// other publication can evict it before its warmer holds it. A crash
// anywhere before the rename leaves only a temp file, which recovery
// discards.
//
// Every temp is verified read-only: a chain's Close stamped copy-on-read and
// swarm temps, a peer copy carries the peer's stamp, and a temp materialized
// from a manifest (from non-nil) was hashed against its checksum as it was
// written — the checksum is not taken again.
func (m *Manager) publish(key string, from *dedup.Manifest) (*Lease, error) {
	tmpPath := filepath.Join(m.dir, key+tmpSuffix)
	pubPath := filepath.Join(m.dir, key)

	f, err := openTemp(tmpPath, true)
	if err != nil {
		return nil, err
	}
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	// The verify fills the cache's table set as it checks, so the first
	// session decodes none of them again. The image's Close leaves f open
	// for the fsync; f closes after both.
	tables := qcow.NewTables()
	img, err := qcow.OpenVerified(backend.NopClose(f), qcow.OpenOpts{ReadOnly: true, Tables: tables})
	if err != nil {
		err = fmt.Errorf("cachemgr: verifying %s: %w", key, err)
	} else {
		img.Close() //nolint:errcheck // read-only: releases nothing but f, closed below
	}
	if err := errors.Join(err, <-synced, f.Close()); err != nil {
		return nil, err
	}
	if err := os.Chmod(tmpPath, 0o444); err != nil {
		return nil, err
	}
	if err := os.Rename(tmpPath, pubPath); err != nil {
		return nil, err
	}
	if err := syncDir(m.dir); err != nil {
		return nil, err
	}
	fi, err := os.Stat(pubPath)
	if err != nil {
		return nil, err
	}
	evicted, ok := m.admit(key, tables, fi.Size(), true)
	if !ok {
		os.Remove(pubPath) //nolint:errcheck // cannot keep it anyway
		return nil, fmt.Errorf("cachemgr: %s (%d bytes) exceeds the node cache budget (%d)",
			key, fi.Size(), m.pool.Capacity())
	}
	m.stats.published.Add(1)
	for _, name := range evicted {
		m.logf("cachemgr: %s displaced %s", key, name)
	}
	if m.dstore != nil {
		// Derive (or confirm) the chunk manifest. Non-fatal: the published
		// cache serves fine without its dedup tier.
		if err := m.dedupPublish(key, pubPath, from); err != nil {
			m.logf("cachemgr: dedup manifest for %s: %v", key, err)
		}
		m.dedupReserve()
	}
	return &Lease{m: m, key: key, tables: tables}, nil
}

// fullSpans covers [0, size) in 1 MiB warm spans.
func fullSpans(size int64) []core.Span {
	const step = 1 << 20
	spans := make([]core.Span, 0, ceilDiv(size, step))
	for off := int64(0); off < size; off += step {
		n := int64(step)
		if size-off < n {
			n = size - off
		}
		spans = append(spans, core.Span{Off: off, Len: n})
	}
	return spans
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// syncDir fsyncs a directory, making a completed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck // read-only directory handle
	return d.Sync()
}
