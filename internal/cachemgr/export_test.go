package cachemgr

import (
	"os"
	"slices"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/qcow"
)

// SetDeltaHandoffBudget swaps the delta warm's hand-off budget for one test.
func SetDeltaHandoffBudget(t *testing.T, n int64) {
	old := deltaHandoffBudget
	deltaHandoffBudget = n
	t.Cleanup(func() { deltaHandoffBudget = old })
}

// SetOpenResident calls opened after each resident cache a materialization
// opens to copy chunks out of, for one test.
func SetOpenResident(t *testing.T, opened func(path string)) {
	old := openResident
	openResident = func(path string) (*os.File, error) {
		f, err := old(path)
		if err == nil {
			opened(path)
		}
		return f, err
	}
	t.Cleanup(func() { openResident = old })
}

// SetOpenTemp wraps how publish opens a temp for one test: wrap sees the
// path and the mode of each open and may replace the file it returns.
func SetOpenTemp(t *testing.T, wrap func(path string, readOnly bool, f backend.File) backend.File) {
	old := openTemp
	openTemp = func(path string, readOnly bool) (backend.File, error) {
		f, err := old(path, readOnly)
		if err != nil {
			return nil, err
		}
		return wrap(path, readOnly, f), nil
	}
	t.Cleanup(func() { openTemp = old })
}

// PullFromPeer runs only the wholesale pull of key from the peer at addr into
// key's temp file, leaving it unpublished.
func (m *Manager) PullFromPeer(addr, key string) (int64, error) {
	return m.fetchFromPeer(addr, key, key+tmpSuffix)
}

// WrapLocalStores re-registers the cache directory and the CoW scratch under
// their namespace names wrapped by wrap, so a test sees every container a
// session opens from them. Call it before the sessions it observes.
func (m *Manager) WrapLocalStores(wrap func(backend.Store) backend.Store) {
	m.ns.Register(storeName, wrap(m.store))
	m.ns.Register(scratchName, wrap(m.scratch))
}

// TableSets reports the keys the manager holds a shared table set for and
// the keys resident in its pool, both sorted.
func (m *Manager) TableSets() (sets, resident []string) {
	m.mu.Lock()
	for k := range m.tables {
		sets = append(sets, k)
	}
	m.mu.Unlock()
	resident = m.pool.Names()
	slices.Sort(sets)
	slices.Sort(resident)
	return sets, resident
}

// TableSet reports the table set the session's lease carried to its attach.
func (s *Session) TableSet() *qcow.Tables { return s.lease.tables }

// TableSet reports the table set of the cache instance the lease pins.
func (l *Lease) TableSet() *qcow.Tables { return l.tables }
