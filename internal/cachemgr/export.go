package cachemgr

import (
	"fmt"
	"strings"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
	"vmicache/internal/rblock"
)

// exportStore is the peer-facing view of the cache directory: published
// caches are visible wholesale under their own names, and the virtual address
// space of a warming-or-published cache under "swarm:<key>" — always
// read-only. Temp files, CoW scratch, and anything else in the directory do
// not exist as far as peers are concerned, so a partially-warmed cache can
// never leak across the network (swarm views refuse not-yet-valid ranges
// per request instead).
type exportStore struct{ m *Manager }

// Open serves a published cache read-only, or a chunk-wise virtual view for
// "swarm:"-prefixed names. Both paths consume a peer-concurrency slot,
// released when the served handle closes.
func (e exportStore) Open(name string, _ bool) (backend.File, error) {
	release, err := e.m.acquirePeerSlot()
	if err != nil {
		return nil, err
	}
	if key, ok := cutExportPrefix(name); ok {
		img, err := e.m.swarmImage(key)
		if err != nil {
			release()
			return nil, err
		}
		return &swarmFile{img: img, release: release}, nil
	}
	if !strings.HasSuffix(name, pubSuffix) || !e.m.pool.Contains(name) {
		release()
		return nil, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	f, err := e.m.store.Open(name, true)
	if err != nil {
		release()
		return nil, err
	}
	return &semFile{File: f, release: release}, nil
}

// ServePeers starts exporting this node's caches over rblock: published
// caches wholesale, plus chunk-wise "swarm:<key>" virtual views (with OpMap
// chunk-map queries) of anything warming or published. Returns the bound
// address.
func (m *Manager) ServePeers(addr string) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if m.exporter != nil {
		m.mu.Unlock()
		return "", fmt.Errorf("cachemgr: already exporting")
	}
	m.mu.Unlock()

	// A typed-nil dedupExport must not become a non-nil ChunkSource.
	var chunks rblock.ChunkSource
	if m.dstore != nil {
		chunks = dedupExport{m}
	}
	srv := rblock.NewServer(exportStore{m}, rblock.ServerOpts{
		Logf:   m.cfg.Logf,
		Maps:   swarmMaps{m},
		Chunks: chunks,
	})
	if m.cfg.Metrics != nil {
		srv.RegisterMetrics(m.cfg.Metrics, metrics.Labels{"server": "peer-export"})
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	m.exporter = srv
	// The swarm identity is the address peers dial; with an OS-assigned
	// port it is only known now, so default it from the bound address.
	if m.cfg.SwarmSelf == "" {
		m.cfg.SwarmSelf = bound
	}
	m.mu.Unlock()
	m.logf("cachemgr: exporting published caches on %s", bound)
	return bound, nil
}

// ExportStats snapshots the peer exporter's traffic counters; ok is false
// when the manager is not exporting.
func (m *Manager) ExportStats() (stats rblock.ServerStats, ok bool) {
	m.mu.Lock()
	exp := m.exporter
	m.mu.Unlock()
	if exp == nil {
		return rblock.ServerStats{}, false
	}
	return exp.Stats(), true
}
