package swarm

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// PeerID identifies a peer inside one scheduler — in practice the peer's
// rblock export address, which doubles as its member name for rendezvous
// hashing.
type PeerID string

// Storage is the assignment target for chunks fetched from the origin
// (storage node) instead of a peer.
const Storage PeerID = ""

// Scheduler policy constants.
const (
	// peerInflight caps chunks in flight to one peer.
	peerInflight = 4
	// maxPeerFailures marks a peer dead after this many consecutive
	// failures.
	maxPeerFailures = 3
	// retryWait is the poll interval Next suggests when nothing is
	// assignable but the transfer is not finished.
	retryWait = 25 * time.Millisecond
)

// SchedConfig tunes the chunk scheduler's timing to the crowd. The zero value
// gets sane defaults.
type SchedConfig struct {
	// PrimaryHold delays the first storage assignment after the scheduler
	// starts, giving tracker membership time to converge in a flash crowd
	// so rendezvous primaries are agreed upon before anyone hits storage
	// (0 = no hold).
	PrimaryHold time.Duration
	// StorageFallbackAfter bounds how long a chunk may starve — pending,
	// no live peer advertising it, this node not its rendezvous primary —
	// before the node fetches it from storage anyway (liveness when the
	// primary died). Default 2s.
	StorageFallbackAfter time.Duration
}

// Assignment is one unit of scheduled work: fetch chunk (virtual bytes
// [Off, Off+N)) from Peer, or from the storage node when Peer == Storage.
type Assignment struct {
	Chunk int64
	Off   int64
	N     int64
	Peer  PeerID
}

type chunkPhase uint8

const (
	chunkPending chunkPhase = iota
	chunkAssigned
	chunkDone
)

type chunkState struct {
	phase chunkPhase
	// failed records peers that failed this chunk; they are not retried
	// for it unless every other option is exhausted.
	failed map[PeerID]bool
	// starvedSince, when non-zero, is when the chunk was first seen
	// pending with no live peer advertising it and this node not its
	// primary; feeds StorageFallbackAfter.
	starvedSince time.Time
}

type peerState struct {
	m        *Map // last advertised map
	inflight int
	failures int // consecutive; reset on success
	dead     bool
}

// Scheduler decides which chunk to fetch next and from where. It is pure
// bookkeeping — no I/O, no goroutines — with an injected clock, so its
// policies (rarest-first, the in-flight cap, reassignment, rendezvous storage
// fallback) are unit-testable without time dependence. All methods are
// safe for concurrent use.
type Scheduler struct {
	mu     sync.Mutex
	cfg    SchedConfig
	key    string // image key: the rendezvous hash salt
	self   string // this node's member name (its peer-export address)
	size   int64
	chunks []chunkState
	todo   int64 // chunks not yet done
	peers  map[PeerID]*peerState
	// members is the current rendezvous view (peer addresses including
	// self when announced), kept sorted; empty means no tracker — storage
	// fallback is immediate for unavailable chunks.
	members []string
	// prim memoizes isPrimary per chunk (primUnknown until computed),
	// invalidated when the membership view changes: the rendezvous hash
	// walks every member, and recomputing it for every chunk on every
	// scheduler poll is O(chunks × members × poll rate) — enough to
	// starve a whole crowd of CPU. Allocated lazily on first use.
	prim  []uint8
	now   func() time.Time
	start time.Time

	// wake is signalled (non-blocking) whenever state changes in a way
	// that may unblock Next: completions, failures, map updates, peer
	// arrival. Workers select on it instead of busy-polling.
	wake chan struct{}

	// counters (guarded by mu; snapshot via Counts)
	cnt SchedCounts
}

// SchedCounts snapshots the scheduler's outcome counters.
type SchedCounts struct {
	ChunksPeer    int64 // chunks completed from a peer
	ChunksStorage int64 // chunks completed from storage
	BytesPeer     int64
	BytesStorage  int64
	Reassigned    int64 // failed chunks put back for another source
	Done          int64
	Total         int64
}

// NewScheduler plans the fetch of a size-byte image in ChunkSize chunks. key
// salts the rendezvous hash so different images spread their primaries
// differently; self is this node's member name. now is the clock (nil =
// time.Now).
func NewScheduler(key, self string, size int64, cfg SchedConfig, now func() time.Time) (*Scheduler, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	if cfg.StorageFallbackAfter <= 0 {
		cfg.StorageFallbackAfter = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	n := numChunks(size)
	s := &Scheduler{
		cfg:    cfg,
		key:    key,
		self:   self,
		size:   size,
		chunks: make([]chunkState, n),
		todo:   n,
		peers:  make(map[PeerID]*peerState),
		now:    now,
		wake:   make(chan struct{}, 1),
	}
	s.start = now()
	s.cnt.Total = n
	return s, nil
}

// Wake returns the channel signalled on state changes; workers select on it
// alongside the retry timer suggested by Next.
func (s *Scheduler) Wake() <-chan struct{} { return s.wake }

func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// UpdatePeer installs a peer's freshly fetched chunk map, registering the
// peer if needed and reviving a dead one (a working map fetch proves life).
func (s *Scheduler) UpdatePeer(id PeerID, m *Map) {
	s.mu.Lock()
	p, ok := s.peers[id]
	if !ok {
		p = &peerState{}
		s.peers[id] = p
	}
	p.m = m
	p.dead = false
	p.failures = 0
	// Fresh availability can unstarve chunks.
	for c := range s.chunks {
		if s.chunks[c].phase == chunkPending && m.Has(int64(c)) {
			s.chunks[c].starvedSince = time.Time{}
		}
	}
	s.mu.Unlock()
	s.signal()
}

// RemovePeer drops a peer entirely (connection dead). Its in-flight chunks
// were already assigned; their workers will Fail them back individually.
func (s *Scheduler) RemovePeer(id PeerID) {
	s.mu.Lock()
	delete(s.peers, id)
	s.mu.Unlock()
	s.signal()
}

// SetMembers installs the rendezvous membership view (tracker-announced peer
// addresses, including this node's own). The view is held sorted so an
// unchanged membership arriving in a different order does not invalidate the
// memoized primary assignments.
func (s *Scheduler) SetMembers(members []string) {
	sorted := SortedMembers(members)
	s.mu.Lock()
	if !slices.Equal(s.members, sorted) {
		s.members = sorted
		clear(s.prim)
	}
	s.mu.Unlock()
	s.signal()
}

// Next picks the next assignment. ok=false means nothing is assignable right
// now; retry after wait (wait == 0 only when the transfer is finished).
// Selection is rarest-first: among pending chunks served by at least one
// eligible peer, the one advertised by the fewest live peers wins, breaking
// ties toward the least-loaded peer. Chunks no peer advertises go to storage,
// but — when a membership view is installed — only on the node that is the
// chunk's rendezvous primary, so a flash crowd fetches each chunk from
// storage roughly once; non-primaries wait for the swarm and use
// StorageFallbackAfter as the liveness escape hatch.
func (s *Scheduler) Next() (a Assignment, ok bool, wait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.todo == 0 {
		return Assignment{}, false, 0
	}
	now := s.now()

	type cand struct {
		chunk int64
		avail int
		peer  PeerID
	}
	best := cand{avail: 1 << 30}
	bestLoad := 1 << 30
	var bestStorage int64 = -1
	minWait := retryWait

	inHold := s.cfg.PrimaryHold > 0 && now.Sub(s.start) < s.cfg.PrimaryHold
	if inHold {
		if d := s.cfg.PrimaryHold - now.Sub(s.start); d < minWait {
			minWait = d
		}
	}

	for c := range s.chunks {
		st := &s.chunks[c]
		if st.phase != chunkPending {
			continue
		}
		chunk := int64(c)
		// avail counts every live advertiser (the rarest-first rank);
		// usable excludes peers that already failed this chunk — when it
		// hits zero the chunk falls through to the storage path even
		// though someone still advertises it.
		avail, usable := 0, 0
		var pick PeerID
		pickLoad := 1 << 30
		for id, p := range s.peers {
			if p.dead || !p.m.Has(chunk) {
				continue
			}
			avail++
			if st.failed[id] {
				continue
			}
			usable++
			if p.inflight >= peerInflight {
				continue
			}
			if p.inflight < pickLoad {
				pick, pickLoad = id, p.inflight
			}
		}
		if usable > 0 {
			st.starvedSince = time.Time{}
			if pick != "" && (avail < best.avail || (avail == best.avail && pickLoad < bestLoad)) {
				best = cand{chunk: chunk, avail: avail, peer: pick}
				bestLoad = pickLoad
			}
			continue
		}
		// No live peer advertises this chunk: storage candidate.
		if inHold {
			continue
		}
		if len(s.members) > 1 && !s.isPrimary(chunk) {
			if st.starvedSince.IsZero() {
				st.starvedSince = now
			}
			starved := now.Sub(st.starvedSince)
			if starved < s.cfg.StorageFallbackAfter {
				if d := s.cfg.StorageFallbackAfter - starved; d < minWait {
					minWait = d
				}
				continue
			}
		}
		if bestStorage < 0 {
			bestStorage = chunk
		}
	}

	if best.avail < 1<<30 {
		st := &s.chunks[best.chunk]
		st.phase = chunkAssigned
		s.peers[best.peer].inflight++
		off, n := chunkSpan(s.size, best.chunk)
		return Assignment{Chunk: best.chunk, Off: off, N: n, Peer: best.peer}, true, 0
	}
	if bestStorage >= 0 {
		s.chunks[bestStorage].phase = chunkAssigned
		off, n := chunkSpan(s.size, bestStorage)
		return Assignment{Chunk: bestStorage, Off: off, N: n, Peer: Storage}, true, 0
	}
	if minWait <= 0 {
		minWait = time.Millisecond
	}
	return Assignment{}, false, minWait
}

// Complete reports a fetched assignment. served names the source class that
// actually delivered the bytes (the assigned peer, another peer after
// internal failover, or Storage).
func (s *Scheduler) Complete(a Assignment, served PeerID) {
	s.mu.Lock()
	st := &s.chunks[a.Chunk]
	if st.phase != chunkDone {
		if st.phase == chunkAssigned || st.phase == chunkPending {
			st.phase = chunkDone
			s.todo--
			s.cnt.Done++
			if served == Storage {
				s.cnt.ChunksStorage++
				s.cnt.BytesStorage += a.N
			} else {
				s.cnt.ChunksPeer++
				s.cnt.BytesPeer += a.N
			}
		}
	}
	if a.Peer != Storage {
		if p, ok := s.peers[a.Peer]; ok {
			if p.inflight > 0 {
				p.inflight--
			}
			p.failures = 0
		}
	}
	s.mu.Unlock()
	s.signal()
}

// Fail reports a failed assignment: the chunk returns to pending (counted as
// a reassignment), the peer's failure streak advances, and a peer that keeps
// failing is marked dead so rarest-first stops considering it.
func (s *Scheduler) Fail(a Assignment) {
	s.mu.Lock()
	st := &s.chunks[a.Chunk]
	if st.phase == chunkAssigned {
		st.phase = chunkPending
		st.starvedSince = time.Time{}
		s.cnt.Reassigned++
	}
	if a.Peer != Storage {
		if st.failed == nil {
			st.failed = make(map[PeerID]bool)
		}
		st.failed[a.Peer] = true
		if p, ok := s.peers[a.Peer]; ok {
			if p.inflight > 0 {
				p.inflight--
			}
			p.failures++
			if p.failures >= maxPeerFailures {
				p.dead = true
			}
		}
	}
	s.mu.Unlock()
	s.signal()
}

// Finished reports whether every chunk is done.
func (s *Scheduler) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.todo == 0
}

// Remaining reports how many chunks are not yet done.
func (s *Scheduler) Remaining() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.todo
}

// Counts snapshots the outcome counters.
func (s *Scheduler) Counts() SchedCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cnt
}

// PeerFor picks a serving peer for a demand read of chunk c — a guest miss
// arriving outside any worker assignment. It prefers the least-loaded live
// peer advertising the chunk, ignoring the in-flight cap (demand misses must
// not stall behind the swarm's own fetches); exclude lists peers that
// already failed this read. ok=false means no peer can serve it (caller
// falls through to storage).
func (s *Scheduler) PeerFor(c int64, exclude map[PeerID]bool) (PeerID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pick PeerID
	load := 1 << 30
	found := false
	for id, p := range s.peers {
		if p.dead || !p.m.Has(c) || exclude[id] {
			continue
		}
		if p.inflight < load {
			pick, load, found = id, p.inflight, true
		}
	}
	return pick, found
}

// prim cache states: a chunk's primary verdict under the current view.
const (
	primUnknown = iota
	primYes
	primNo
)

// isPrimary reports whether self wins the rendezvous hash for chunk c over
// the current membership view, memoized until the view changes. Caller
// holds s.mu.
func (s *Scheduler) isPrimary(c int64) bool {
	if s.self == "" {
		return false
	}
	if s.prim == nil {
		s.prim = make([]uint8, len(s.chunks))
	}
	if v := s.prim[c]; v != primUnknown {
		return v == primYes
	}
	ok := rendezvousOwner(s.members, s.key, c) == s.self
	if ok {
		s.prim[c] = primYes
	} else {
		s.prim[c] = primNo
	}
	return ok
}

// rendezvousOwner picks the member with the highest FNV-1a hash of
// (member, key, chunk) — highest-random-weight hashing, so each chunk has
// exactly one owner under any shared membership view and ownership moves
// minimally as members come and go. Ties break toward the lexically
// smallest member for determinism.
func rendezvousOwner(members []string, key string, chunk int64) string {
	var owner string
	var best uint64
	for _, m := range members {
		v := rendezvousHash(m, key, chunk)
		if owner == "" || v > best || (v == best && m < owner) {
			owner, best = m, v
		}
	}
	return owner
}

// rendezvousHash is FNV-1a over member || 0 || key || chunk (little-endian),
// inlined so the per-(member, chunk) score costs no allocation — this sits on
// the scheduler's hot path for every membership change.
func rendezvousHash(member, key string, chunk int64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(member); i++ {
		h = (h ^ uint64(member[i])) * prime64
	}
	h = (h ^ 0) * prime64 // separator byte
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(chunk>>(8*i)))) * prime64
	}
	return h
}

// SortedMembers returns a copy of members, sorted — a stable identity for
// logs and tests.
func SortedMembers(members []string) []string {
	out := append([]string(nil), members...)
	sort.Strings(out)
	return out
}
