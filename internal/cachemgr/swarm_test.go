package cachemgr_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/rblock"
	"vmicache/internal/swarm"
)

// swarmify turns on chunk-level warming with test-friendly timings.
func swarmify(c *cachemgr.Config) {
	c.SwarmEnabled = true
	c.SwarmRefresh = 10 * time.Millisecond
	c.SwarmPrimaryHold = 30 * time.Millisecond
	c.SwarmFallbackAfter = 300 * time.Millisecond
}

// readSession boots a VM on m and checks the full image content.
func readSession(t *testing.T, m *cachemgr.Manager, base, vmID string, want []byte) {
	t.Helper()
	sess, err := m.Boot(base, vmID)
	if err != nil {
		t.Fatalf("boot %s on %s: %v", vmID, base, err)
	}
	defer sess.Close() //nolint:errcheck
	buf := make([]byte, len(want))
	if err := backend.ReadFull(sess.Chain, buf, 0); err != nil {
		t.Fatalf("%s read: %v", vmID, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("%s read wrong content", vmID)
	}
}

// TestSwarmWarmFromPeer: with one fully warm serving peer, a swarm warm pulls
// every chunk from that peer — the storage node sees only chain-open metadata,
// no image data.
func TestSwarmWarmFromPeer(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 21)

	mgrA := newManager(t, s, swarmify)
	leaseA, err := mgrA.Acquire("base.img") // no peers yet: all from storage
	if err != nil {
		t.Fatalf("warming node A: %v", err)
	}
	leaseA.Release()
	addrA, err := mgrA.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	mgrB := newManager(t, s, func(c *cachemgr.Config) {
		swarmify(c)
		c.Peers = []string{addrA}
	})
	storageBefore := s.srv.Stats().BytesRead
	leaseB, err := mgrB.Acquire("base.img")
	if err != nil {
		t.Fatalf("swarm warm on B: %v", err)
	}
	leaseB.Release()

	st := mgrB.Stats()
	if st.SwarmWarms != 1 {
		t.Fatalf("swarm warms = %d, want 1", st.SwarmWarms)
	}
	nchunks := int64(size >> 16)
	if st.SwarmChunksPeer != nchunks || st.SwarmChunksStorage != 0 {
		t.Fatalf("chunks: %d peer / %d storage, want %d / 0",
			st.SwarmChunksPeer, st.SwarmChunksStorage, nchunks)
	}
	if st.SwarmBytesPeer < size {
		t.Fatalf("peer bytes = %d, want >= %d", st.SwarmBytesPeer, size)
	}
	// The storage node served chain-open metadata only (headers, L1), no
	// data clusters: far less than even 10%% of the image.
	if delta := s.srv.Stats().BytesRead - storageBefore; delta > size/10 {
		t.Fatalf("storage served %d bytes during a full-peer swarm warm", delta)
	}
	d, ok := st.Peers[addrA]
	if !ok || d.Attempts < nchunks || d.Failures != 0 {
		t.Fatalf("peer detail for %s = %+v", addrA, d)
	}
	readSession(t, mgrB, "base.img", "vmB", s.patterns["base.img"])
}

// slowStore delays every read served from the wrapped store — it stands in
// for a distant storage node so a warm stays in flight long enough to observe.
type slowStore struct {
	backend.Store
	delay time.Duration
}

type slowFile struct {
	backend.File
	delay time.Duration
}

func (s *slowStore) Open(name string, ro bool) (backend.File, error) {
	f, err := s.Store.Open(name, ro)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, delay: s.delay}, nil
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.delay)
	return f.File.ReadAt(p, off)
}

// TestSwarmServeWhileWarming: node A warms slowly from storage; node B starts
// its swarm warm while A is still below 50% valid, fetches chunks from A
// anyway, and both finish with correct content. This is the serve-while-
// warming property: a cache serves the chunks it has before it has them all.
func TestSwarmServeWhileWarming(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	const nchunks = size >> 16
	s.addBase(t, "base.img", size, 22)

	mgrA := newManager(t, s, func(c *cachemgr.Config) {
		swarmify(c)
		// Slow enough that A's warm, four fetches at a time, takes a while.
		c.Backing = &slowStore{Store: c.Backing, delay: 16 * time.Millisecond}
	})
	addrA, err := mgrA.ServePeers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	warmA := make(chan error, 1)
	go func() {
		lease, err := mgrA.Acquire("base.img")
		if err == nil {
			lease.Release()
		}
		warmA <- err
	}()

	// Watch A's advertised chunk map until it is warming but below 50%.
	c, err := rblock.Dial(addrA, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	key := mgrA.KeyFor("base.img")
	var frac float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("node A never started advertising a partial map")
		}
		enc, err := c.FetchMap(swarm.ExportName(key))
		if err == nil {
			m, err := swarm.DecodeMap(enc)
			if err != nil {
				t.Fatal(err)
			}
			if n := m.Count(); n > 0 {
				frac = float64(n) / nchunks
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if frac >= 0.5 {
		t.Fatalf("node A already %.0f%% valid; too fast to observe serve-while-warming", frac*100)
	}

	mgrB := newManager(t, s, func(c *cachemgr.Config) {
		swarmify(c)
		c.Peers = []string{addrA}
	})
	leaseB, err := mgrB.Acquire("base.img")
	if err != nil {
		t.Fatalf("swarm warm on B against a warming peer: %v", err)
	}
	leaseB.Release()
	if err := <-warmA; err != nil {
		t.Fatalf("node A warm: %v", err)
	}

	st := mgrB.Stats()
	if st.SwarmChunksPeer == 0 {
		t.Fatal("node B fetched nothing from the still-warming peer")
	}
	if st.SwarmChunksPeer+st.SwarmChunksStorage != nchunks {
		t.Fatalf("chunks: %d peer + %d storage != %d",
			st.SwarmChunksPeer, st.SwarmChunksStorage, nchunks)
	}
	t.Logf("peer was %.0f%% valid at B's start; B pulled %d/%d chunks from it",
		frac*100, st.SwarmChunksPeer, nchunks)
	readSession(t, mgrB, "base.img", "vmB", s.patterns["base.img"])
	readSession(t, mgrA, "base.img", "vmA", s.patterns["base.img"])
}

// TestSwarmThreeNodeConcurrent: three nodes cold-boot the same image at once,
// discovering each other through a tracker and trading chunks while all three
// are still warming. One node is killed mid-swarm; the survivors reassign its
// chunks and finish with caches virtually identical to the base.
func TestSwarmThreeNodeConcurrent(t *testing.T) {
	s := newStorageNode(t)
	const size = 4 * mb
	s.addBase(t, "base.img", size, 23)
	tr := swarm.NewTracker(2*time.Second, nil)

	mk := func() *cachemgr.Manager {
		m := newManager(t, s, func(c *cachemgr.Config) {
			swarmify(c)
			c.SwarmTracker = &swarm.LocalAnnouncer{T: tr}
			// Slow the storage path slightly so the swarm overlaps.
			c.Backing = &slowStore{Store: c.Backing, delay: time.Millisecond}
		})
		if _, err := m.ServePeers("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return m
	}
	mgrs := []*cachemgr.Manager{mk(), mk(), mk()}

	var wg sync.WaitGroup
	errs := make([]error, len(mgrs))
	for i, m := range mgrs {
		wg.Add(1)
		go func(i int, m *cachemgr.Manager) {
			defer wg.Done()
			lease, err := m.Acquire("base.img")
			if err == nil {
				lease.Release()
			}
			errs[i] = err
		}(i, m)
	}
	// Kill node 2 mid-swarm: its exporter stops serving, its in-flight
	// warm is cut loose. The survivors must reassign and complete.
	time.Sleep(30 * time.Millisecond)
	go mgrs[2].Close() //nolint:errcheck // Shutdown drains in the background

	wg.Wait()
	for i, err := range errs[:2] {
		if err != nil {
			t.Fatalf("node %d warm: %v", i, err)
		}
	}
	// errs[2] may be nil (warm finished before the kill took effect) or not;
	// either is acceptable for the killed node.

	for i, m := range mgrs[:2] {
		readSession(t, m, "base.img", fmt.Sprintf("vm%d", i), s.patterns["base.img"])
	}
	for i, m := range mgrs[:2] {
		st := m.Stats()
		t.Logf("node %d: %d chunks peer / %d storage, %d reassigned",
			i, st.SwarmChunksPeer, st.SwarmChunksStorage, st.SwarmReassigned)
	}
}
