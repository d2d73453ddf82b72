package swarm

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for deterministic scheduler tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// mapOf builds a map over n 64 KiB chunks with the listed chunks valid.
func mapOf(n int64, valid ...int64) *Map { return testMap(n*ChunkSize, valid...) }

func newSched(t *testing.T, nchunks int64, cfg SchedConfig, clk *fakeClock) *Scheduler {
	t.Helper()
	s, err := NewScheduler("img.vmic", "self:1", nchunks*ChunkSize, cfg, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustNext(t *testing.T, s *Scheduler) Assignment {
	t.Helper()
	a, ok, _ := s.Next()
	if !ok {
		t.Fatalf("Next: nothing assignable (remaining %d)", s.todo)
	}
	return a
}

func TestSchedRarestFirst(t *testing.T) {
	clk := newClock()
	s := newSched(t, 4, SchedConfig{}, clk)
	// Peer A holds everything; peer B only chunk 3. Chunks 0-2 have
	// availability 1, chunk 3 availability 2 — the rare chunks go first.
	s.UpdatePeer("a", mapOf(4, 0, 1, 2, 3))
	s.UpdatePeer("b", mapOf(4, 3))

	order := make([]int64, 0, 4)
	byPeer := map[PeerID][]int64{}
	for i := 0; i < 4; i++ {
		a := mustNext(t, s)
		order = append(order, a.Chunk)
		byPeer[a.Peer] = append(byPeer[a.Peer], a.Chunk)
		s.Complete(a, a.Peer)
	}
	if order[3] != 3 {
		t.Fatalf("widely-held chunk 3 fetched before rare chunks: order %v", order)
	}
	for _, c := range byPeer["b"] {
		if c != 3 {
			t.Fatalf("peer b assigned chunk %d it does not hold", c)
		}
	}
	if !s.Finished() {
		t.Fatal("not finished after all chunks completed")
	}
	cnt := s.Counts()
	if cnt.ChunksPeer != 4 || cnt.ChunksStorage != 0 {
		t.Fatalf("counts = %+v, want 4 peer chunks", cnt)
	}
}

func TestSchedPeerInflightCap(t *testing.T) {
	clk := newClock()
	const n = peerInflight + 2
	s := newSched(t, n, SchedConfig{}, clk)
	all := make([]int64, n)
	for c := range all {
		all[c] = int64(c)
	}
	s.UpdatePeer("a", mapOf(n, all...))

	held := make([]Assignment, peerInflight)
	for i := range held {
		held[i] = mustNext(t, s)
	}
	if _, ok, wait := s.Next(); ok {
		t.Fatalf("assignment %d exceeded the in-flight cap of %d", peerInflight+1, peerInflight)
	} else if wait <= 0 {
		t.Fatal("blocked Next must suggest a positive wait")
	}
	s.Complete(held[0], held[0].Peer)
	a := mustNext(t, s)
	if a.Peer != "a" {
		t.Fatalf("assignment went to %q, want a", a.Peer)
	}
	for _, h := range held[1:] {
		s.Complete(h, h.Peer)
	}
	s.Complete(a, a.Peer)
	mustNext(t, s)
}

func TestSchedFailReassignsToOtherPeer(t *testing.T) {
	clk := newClock()
	s := newSched(t, 1, SchedConfig{}, clk)
	s.UpdatePeer("a", mapOf(1, 0))
	s.UpdatePeer("b", mapOf(1, 0))

	a := mustNext(t, s)
	s.Fail(a)
	r := mustNext(t, s)
	if r.Chunk != a.Chunk {
		t.Fatalf("reassigned chunk %d, want %d", r.Chunk, a.Chunk)
	}
	if r.Peer == a.Peer {
		t.Fatalf("chunk reassigned to the failed peer %q", a.Peer)
	}
	if got := s.Counts().Reassigned; got != 1 {
		t.Fatalf("Reassigned = %d, want 1", got)
	}
}

func TestSchedFailFallsBackToStorage(t *testing.T) {
	clk := newClock()
	s := newSched(t, 1, SchedConfig{}, clk)
	s.UpdatePeer("a", mapOf(1, 0))

	a := mustNext(t, s)
	s.Fail(a)
	// Only advertiser failed the chunk; with no membership view installed
	// the storage fallback is immediate.
	r := mustNext(t, s)
	if r.Peer != Storage {
		t.Fatalf("reassignment went to %q, want storage", r.Peer)
	}
	s.Complete(r, Storage)
	cnt := s.Counts()
	if cnt.ChunksStorage != 1 || cnt.ChunksPeer != 0 {
		t.Fatalf("counts = %+v, want 1 storage chunk", cnt)
	}
}

func TestSchedPeerDeathMidTransfer(t *testing.T) {
	clk := newClock()
	s := newSched(t, 4, SchedConfig{}, clk)
	s.UpdatePeer("a", mapOf(4, 0, 1))
	s.UpdatePeer("b", mapOf(4, 0, 1, 2, 3))

	// Claim every chunk; some land on a, some on b.
	var got []Assignment
	for i := 0; i < 4; i++ {
		got = append(got, mustNext(t, s))
	}
	// Peer a dies mid-transfer: its in-flight chunks fail and reassign.
	s.RemovePeer("a")
	for _, a := range got {
		if a.Peer == "a" {
			s.Fail(a)
		} else {
			s.Complete(a, a.Peer)
		}
	}
	for !s.Finished() {
		a := mustNext(t, s)
		if a.Peer == "a" {
			t.Fatal("assignment to a removed peer")
		}
		s.Complete(a, a.Peer)
	}
}

func TestSchedConsecutiveFailuresKillPeer(t *testing.T) {
	clk := newClock()
	s := newSched(t, 8, SchedConfig{}, clk)
	s.UpdatePeer("a", mapOf(8, 0, 1, 2, 3, 4, 5, 6, 7))

	for i := 0; i < maxPeerFailures; i++ {
		a := mustNext(t, s)
		s.Fail(a)
	}
	// maxPeerFailures consecutive failures: the peer is dead, chunks go to
	// storage.
	a := mustNext(t, s)
	if a.Peer != Storage {
		t.Fatalf("dead peer still assigned (%q)", a.Peer)
	}
	// A fresh map (a successful fetch) revives it.
	s.UpdatePeer("a", mapOf(8, 0, 1, 2, 3, 4, 5, 6, 7))
	found := false
	for i := 0; i < 8 && !found; i++ {
		na, ok, _ := s.Next()
		if !ok {
			break
		}
		found = na.Peer == "a"
		s.Complete(na, na.Peer)
	}
	if !found {
		t.Fatal("revived peer never reassigned")
	}
}

func TestSchedRendezvousPrimary(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4"}
	// Every chunk has exactly one owner, the same under any member order.
	for c := int64(0); c < 64; c++ {
		owner := rendezvousOwner(members, "img", c)
		if owner == "" {
			t.Fatal("no owner")
		}
		perm := []string{"n3", "n1", "n4", "n2"}
		if got := rendezvousOwner(perm, "img", c); got != owner {
			t.Fatalf("chunk %d owner depends on member order: %q vs %q", c, got, owner)
		}
	}
	// Ownership spreads: with 64 chunks over 4 members nobody owns all.
	counts := map[string]int{}
	for c := int64(0); c < 64; c++ {
		counts[rendezvousOwner(members, "img", c)]++
	}
	for m, n := range counts {
		if n == 64 {
			t.Fatalf("member %s owns every chunk", m)
		}
	}
	if len(counts) < 3 {
		t.Fatalf("ownership concentrated on %d members: %v", len(counts), counts)
	}
}

func TestSchedStoragePrimaryGating(t *testing.T) {
	clk := newClock()
	cfg := SchedConfig{
		PrimaryHold:          100 * time.Millisecond,
		StorageFallbackAfter: time.Second,
	}
	s, err := NewScheduler("img", "self", 4*ChunkSize, cfg, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMembers([]string{"self", "other"})

	// During the hold nothing goes to storage even though no peer exists.
	if _, ok, _ := s.Next(); ok {
		t.Fatal("storage assignment during PrimaryHold")
	}
	clk.Advance(150 * time.Millisecond)

	// After the hold, only chunks this node is primary for go to storage.
	primary := map[int64]bool{}
	for c := int64(0); c < 4; c++ {
		primary[c] = rendezvousOwner([]string{"self", "other"}, "img", c) == "self"
	}
	assigned := map[int64]bool{}
	for {
		a, ok, _ := s.Next()
		if !ok {
			break
		}
		if a.Peer != Storage {
			t.Fatalf("unexpected peer assignment %q", a.Peer)
		}
		assigned[a.Chunk] = true
	}
	for c := int64(0); c < 4; c++ {
		if assigned[c] != primary[c] {
			t.Fatalf("chunk %d: assigned=%v primary=%v", c, assigned[c], primary[c])
		}
	}

	// Past StorageFallbackAfter the starving non-primary chunks get
	// fetched from storage anyway (the primary must be presumed dead).
	clk.Advance(2 * time.Second)
	for c := int64(0); c < 4; c++ {
		if primary[c] {
			continue
		}
		a, ok, _ := s.Next()
		if !ok || a.Peer != Storage {
			t.Fatalf("starved chunk not released to storage (ok=%v)", ok)
		}
		assigned[a.Chunk] = true
	}
	for c := int64(0); c < 4; c++ {
		if !assigned[c] {
			t.Fatalf("chunk %d never assigned", c)
		}
	}
}

func TestSchedPeerForDemand(t *testing.T) {
	clk := newClock()
	s := newSched(t, 2, SchedConfig{}, clk)
	if _, ok := s.PeerFor(0, nil); ok {
		t.Fatal("PeerFor with no peers")
	}
	s.UpdatePeer("a", mapOf(2, 0))
	s.UpdatePeer("b", mapOf(2, 0, 1))
	if id, ok := s.PeerFor(1, nil); !ok || id != "b" {
		t.Fatalf("PeerFor(1) = %q/%v, want b", id, ok)
	}
	if _, ok := s.PeerFor(0, map[PeerID]bool{"a": true, "b": true}); ok {
		t.Fatal("PeerFor ignored the exclude set")
	}
}
