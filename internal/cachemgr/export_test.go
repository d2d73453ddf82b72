package cachemgr

import (
	"slices"
	"testing"

	"vmicache/internal/backend"
)

// SetDeltaHandoffBudget swaps the delta warm's hand-off budget for one test.
func SetDeltaHandoffBudget(t *testing.T, n int64) {
	old := deltaHandoffBudget
	deltaHandoffBudget = n
	t.Cleanup(func() { deltaHandoffBudget = old })
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
