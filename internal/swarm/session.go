package swarm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"vmicache/internal/rblock"
)

// ExportPrefix namespaces swarm virtual-view exports on the rblock peer
// server: "swarm:<key>" serves the *virtual* address space of the cache
// published or warming under <key>, guarded so only locally valid ranges are
// readable. The same prefix addresses OpMap chunk-map queries.
const ExportPrefix = "swarm:"

// ExportName derives the rblock export name for an image key.
func ExportName(key string) string { return ExportPrefix + key }

// DefaultRefresh is the default announce + map-poll interval.
const DefaultRefresh = 250 * time.Millisecond

// maxChunkAttempts bounds how often one chunk may fail (across all sources)
// before the session aborts — the liveness backstop against a chunk no
// source can deliver.
const maxChunkAttempts = 16

// workers is a session's fetch parallelism, and dialAttempts how often it
// dials a peer (with rblock.DefaultBackoff between tries) before the next
// refresh round retries.
const (
	workers      = 4
	dialAttempts = 3
)

// Config parameterises a fetch session.
type Config struct {
	// Key is the image key — the cache's published name, shared by every
	// node with the same creation parameters; it selects the peers' export
	// ("swarm:<key>") and salts the rendezvous hash.
	Key string
	// Self is this node's own peer-export address as peers would dial it.
	// It is the node's member name for rendezvous hashing and its announce
	// identity; empty means fetch-only (never a storage primary, relies on
	// StorageFallbackAfter).
	Self string
	// Size is the image's virtual size in bytes.
	Size int64
	// Origin is the storage-node fallback source.
	Origin BlockSource
	// Peers are static peer addresses, used alongside (or instead of) the
	// tracker.
	Peers []string
	// Tracker, when non-nil, is announced to every refresh interval; the
	// returned peer list feeds discovery and the rendezvous membership.
	Tracker Announcer
	// Refresh is the announce + map-poll interval (0 = DefaultRefresh).
	Refresh time.Duration
	// MaxPeers bounds how many peers this session polls (and therefore
	// fetches from) each refresh round; 0 means unbounded. Large swarms
	// cap their active peer set the way BitTorrent clients do: the
	// rendezvous membership stays global (primaries still agree), but
	// map polls and chunk reads go to a stable per-node subset, keeping
	// poll traffic O(N·MaxPeers) instead of O(N²).
	MaxPeers int
	// Sched tunes the chunk scheduler.
	Sched SchedConfig
	// Logf, when non-nil, receives session events.
	Logf func(format string, args ...any)
}

// Counts snapshots a session's transfer outcomes. Chunk counts come from the
// scheduler (per assignment class); byte counts from the source (bytes
// actually moved, including demand reads — a chunk found already valid when
// its worker got to it moves no bytes).
type Counts struct {
	ChunksPeer    int64
	ChunksStorage int64
	BytesPeer     int64
	BytesStorage  int64
	Reassigned    int64
	Done          int64
	Total         int64
}

// PeerStat summarises one peer's transfer outcomes within a session: chunk
// read attempts against it, how many failed, and the most recent failure.
type PeerStat struct {
	Attempts int64
	Failures int64
	LastErr  string
}

// Session drives one image's swarm fetch: workers pull scheduler assignments
// through the cache's fill path (via the Source), while a refresher announces
// to the tracker and polls peer chunk maps.
type Session struct {
	cfg   Config
	sched *Scheduler
	src   *Source

	mu     sync.Mutex
	conns  map[PeerID]*peerConn
	fails  map[int64]int
	pstats map[PeerID]*PeerStat
	closed chan struct{}
	once   sync.Once
}

type peerConn struct {
	mu  sync.Mutex
	c   *rblock.Client
	f   *rblock.RemoteFile
	err error
}

// NewSession validates cfg and builds the scheduler and source. The caller
// installs Source() as the warming image's backing before Run.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Key == "" {
		return nil, errors.New("swarm: Config.Key is required")
	}
	if cfg.Origin == nil {
		return nil, errors.New("swarm: Config.Origin is required")
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = DefaultRefresh
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	sched, err := NewScheduler(cfg.Key, cfg.Self, cfg.Size, cfg.Sched, nil)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:    cfg,
		sched:  sched,
		conns:  make(map[PeerID]*peerConn),
		fails:  make(map[int64]int),
		pstats: make(map[PeerID]*PeerStat),
		closed: make(chan struct{}),
	}
	s.src = &Source{
		origin:   cfg.Origin,
		sched:    sched,
		sess:     s,
		assigned: make(map[int64]PeerID),
	}
	return s, nil
}

// Source returns the multi-source backing to install behind the warming
// image.
func (s *Session) Source() *Source { return s.src }

// Scheduler exposes the underlying scheduler (tests and status).
func (s *Session) Scheduler() *Scheduler { return s.sched }

// Counts snapshots the session's outcomes.
func (s *Session) Counts() Counts {
	sc := s.sched.Counts()
	return Counts{
		ChunksPeer:    sc.ChunksPeer,
		ChunksStorage: sc.ChunksStorage,
		BytesPeer:     s.src.BytesPeer(),
		BytesStorage:  s.src.BytesStorage(),
		Reassigned:    sc.Reassigned,
		Done:          sc.Done,
		Total:         sc.Total,
	}
}

// PeerStats snapshots per-peer transfer outcomes, keyed by peer address.
func (s *Session) PeerStats() map[string]PeerStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]PeerStat, len(s.pstats))
	for id, st := range s.pstats {
		out[string(id)] = *st
	}
	return out
}

// notePeer records one read attempt against a peer and its outcome.
func (s *Session) notePeer(id PeerID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.pstats[id]
	if st == nil {
		st = &PeerStat{}
		s.pstats[id] = st
	}
	st.Attempts++
	if err != nil {
		st.Failures++
		st.LastErr = err.Error()
	}
}

// Run fetches every missing chunk. read drives the cache's fill path —
// typically chain.ReadAt — for the span of one assignment; the Source routes
// the resulting backing read to the assigned peer or the origin. Run returns
// when every chunk is locally valid, or with the first abort-worthy error
// (a chunk that failed maxChunkAttempts times). Safe to call once.
func (s *Session) Run(read func(p []byte, off int64) error) error {
	// Discover peers and membership before the first assignment so the
	// initial scheduling round sees the swarm, not an empty peer set.
	s.refreshOnce()
	stopRefresh := make(chan struct{})
	var refreshWG sync.WaitGroup
	refreshWG.Add(1)
	go func() {
		defer refreshWG.Done()
		t := time.NewTicker(s.cfg.Refresh)
		defer t.Stop()
		for {
			select {
			case <-stopRefresh:
				return
			case <-s.closed:
				return
			case <-t.C:
				s.refreshOnce()
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		abortMu  sync.Mutex
		abortErr error
	)
	abort := func(err error) {
		abortMu.Lock()
		if abortErr == nil {
			abortErr = err
		}
		abortMu.Unlock()
		s.once.Do(func() { close(s.closed) })
	}
	aborted := func() bool {
		abortMu.Lock()
		defer abortMu.Unlock()
		return abortErr != nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, ChunkSize)
			for {
				select {
				case <-s.closed:
					return
				default:
				}
				a, ok, wait := s.sched.Next()
				if !ok {
					if s.sched.Finished() {
						return
					}
					select {
					case <-s.sched.Wake():
					case <-time.After(wait):
					case <-s.closed:
						return
					}
					continue
				}
				s.src.assign(a.Chunk, a.Peer)
				err := read(buf[:a.N], a.Off)
				s.src.unassign(a.Chunk)
				if err != nil {
					s.sched.Fail(a)
					s.mu.Lock()
					s.fails[a.Chunk]++
					n := s.fails[a.Chunk]
					s.mu.Unlock()
					s.cfg.Logf("swarm: %s chunk %d via %q failed (%d): %v",
						s.cfg.Key, a.Chunk, a.Peer, n, err)
					if n >= maxChunkAttempts {
						abort(fmt.Errorf("swarm: chunk %d failed %d times, last: %w", a.Chunk, n, err))
						return
					}
					continue
				}
				s.sched.Complete(a, a.Peer)
			}
		}()
	}
	wg.Wait()
	close(stopRefresh)
	refreshWG.Wait()
	if aborted() {
		abortMu.Lock()
		defer abortMu.Unlock()
		return abortErr
	}
	if !s.sched.Finished() {
		return errors.New("swarm: session closed before completion")
	}
	return nil
}

// Close stops the session (workers and refresher exit) and drops every peer
// connection. Call after Run returns and the Source has been uninstalled.
func (s *Session) Close() {
	s.once.Do(func() { close(s.closed) })
	s.mu.Lock()
	conns := s.conns
	s.conns = make(map[PeerID]*peerConn)
	s.mu.Unlock()
	for _, pc := range conns {
		if pc.c != nil {
			pc.c.Close() //nolint:errcheck // teardown
		}
	}
}

// refreshOnce runs one announce + map-poll round: announce to the tracker
// (install the returned membership), then fetch every known peer's chunk map.
func (s *Session) refreshOnce() {
	addrs := make(map[string]bool)
	if s.cfg.Tracker != nil {
		done := s.sched.Counts().Done
		peers, err := s.cfg.Tracker.Announce(s.cfg.Key, s.cfg.Self, done)
		if err != nil {
			s.cfg.Logf("swarm: announce %s: %v", s.cfg.Key, err)
		} else {
			members := make([]string, 0, len(peers)+1)
			for _, p := range peers {
				addrs[p.Addr] = true
				members = append(members, p.Addr)
			}
			if s.cfg.Self != "" && !addrs[s.cfg.Self] {
				members = append(members, s.cfg.Self)
			}
			s.sched.SetMembers(members)
		}
	}
	for _, p := range s.cfg.Peers {
		addrs[p] = true
	}
	if s.cfg.Tracker == nil && s.cfg.Self != "" && len(s.cfg.Peers) > 0 {
		// Static symmetric deployments still get a rendezvous view: every
		// node lists the same addresses (peers + self), so primaries agree.
		members := append([]string{s.cfg.Self}, s.cfg.Peers...)
		s.sched.SetMembers(members)
	}
	delete(addrs, s.cfg.Self)
	for _, addr := range s.pollSet(addrs) {
		s.pollPeer(PeerID(addr))
	}
}

// pollSet applies the MaxPeers cap: when the swarm is larger than the cap,
// each node polls a stable subset chosen by highest FNV score of
// (self, addr) — stable across rounds (connections stay warm) and different
// per node (coverage of the swarm spreads rather than everyone picking the
// same few peers).
func (s *Session) pollSet(addrs map[string]bool) []string {
	out := make([]string, 0, len(addrs))
	for addr := range addrs {
		out = append(out, addr)
	}
	if s.cfg.MaxPeers <= 0 || len(out) <= s.cfg.MaxPeers {
		return out
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := peerScore(s.cfg.Self, out[i]), peerScore(s.cfg.Self, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	for _, dropped := range out[s.cfg.MaxPeers:] {
		// Outside the active set: forget any availability we learned so
		// the scheduler never assigns a peer we stopped polling.
		s.sched.RemovePeer(PeerID(dropped))
	}
	return out[:s.cfg.MaxPeers]
}

// peerScore ranks addr for self's active peer set.
func peerScore(self, addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(self)) //nolint:errcheck // fnv never fails
	h.Write([]byte{0})    //nolint:errcheck // fnv never fails
	h.Write([]byte(addr)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// pollPeer fetches one peer's chunk map and installs it.
func (s *Session) pollPeer(id PeerID) {
	select {
	case <-s.closed:
		return
	default:
	}
	pc, err := s.conn(id)
	if err != nil {
		return // not up yet; next round retries
	}
	enc, err := pc.c.FetchMap(ExportName(s.cfg.Key))
	if err != nil {
		if errors.Is(err, rblock.ErrNotFound) || errors.Is(err, rblock.ErrBadRequest) {
			return // peer up, image not (yet) advertised there
		}
		s.dropConn(id)
		s.sched.RemovePeer(id)
		return
	}
	m, err := DecodeMap(enc)
	if err != nil {
		s.cfg.Logf("swarm: peer %s sent bad map: %v", id, err)
		return
	}
	if m.Size != s.cfg.Size {
		s.cfg.Logf("swarm: peer %s map mismatch (size %d, want %d)", id, m.Size, s.cfg.Size)
		return
	}
	s.sched.UpdatePeer(id, m)
}

// conn returns (dialling and opening lazily) the connection to a peer's
// swarm export.
func (s *Session) conn(id PeerID) (*peerConn, error) {
	s.mu.Lock()
	pc, ok := s.conns[id]
	if !ok {
		pc = &peerConn{}
		s.conns[id] = pc
	}
	s.mu.Unlock()

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c != nil {
		return pc, nil
	}
	if pc.err != nil {
		// A recent failure; let the next refresh round retry rather than
		// dial-storming from every read.
		err := pc.err
		pc.err = nil
		return nil, err
	}
	c, err := rblock.DialRetry(string(id), dialAttempts, rblock.DefaultBackoff, nil)
	if err != nil {
		pc.err = err
		return nil, err
	}
	pc.c = c
	return pc, nil
}

// file returns the peer's open swarm-export file, opening it on first use.
func (pc *peerConn) file(name string) (*rblock.RemoteFile, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.f != nil {
		return pc.f, nil
	}
	if pc.c == nil {
		return nil, rblock.ErrClosed
	}
	f, err := pc.c.Open(name, true)
	if err != nil {
		return nil, err
	}
	pc.f = f
	return f, nil
}

// dropConn tears down a peer connection (broken transport).
func (s *Session) dropConn(id PeerID) {
	s.mu.Lock()
	pc := s.conns[id]
	delete(s.conns, id)
	s.mu.Unlock()
	if pc != nil {
		pc.mu.Lock()
		if pc.c != nil {
			pc.c.Close() //nolint:errcheck // teardown
			pc.c, pc.f = nil, nil
		}
		pc.mu.Unlock()
	}
}

// readFromPeer reads [off, off+len(p)) of the image's virtual space from a
// peer's swarm export. Request-level refusals (ErrUnavail: the range is not
// valid on the peer yet) surface to the caller for reassignment without
// touching the connection; transport-level failures drop the connection and
// deregister the peer.
func (s *Session) readFromPeer(id PeerID, p []byte, off int64) error {
	err := s.readFromPeerInner(id, p, off)
	s.notePeer(id, err)
	return err
}

func (s *Session) readFromPeerInner(id PeerID, p []byte, off int64) error {
	pc, err := s.conn(id)
	if err != nil {
		s.sched.RemovePeer(id)
		return err
	}
	f, err := pc.file(ExportName(s.cfg.Key))
	if err != nil {
		if errors.Is(err, rblock.ErrClientBroken) || errors.Is(err, rblock.ErrClosed) {
			s.dropConn(id)
			s.sched.RemovePeer(id)
		}
		return err
	}
	n, err := f.ReadAt(p, off)
	if err != nil {
		if errors.Is(err, rblock.ErrUnavail) {
			return err
		}
		if errors.Is(err, rblock.ErrClientBroken) || errors.Is(err, rblock.ErrClosed) {
			s.dropConn(id)
			s.sched.RemovePeer(id)
		}
		return err
	}
	if n < len(p) {
		return io.ErrUnexpectedEOF
	}
	return nil
}
