package cachemgr

import "testing"

// SetDeltaHandoffBudget swaps the delta warm's hand-off budget for one test.
func SetDeltaHandoffBudget(t *testing.T, n int64) {
	old := deltaHandoffBudget
	deltaHandoffBudget = n
	t.Cleanup(func() { deltaHandoffBudget = old })
}
