package swarm

import (
	"io"
	"sync"
	"sync/atomic"
)

// BlockSource matches qcow.BlockSource structurally, so the swarm package
// does not import the image format: anything with full-read semantics and a
// virtual size.
type BlockSource interface {
	ReadAt(p []byte, off int64) (int, error)
	Size() int64
}

// Source is the multi-source backing installed behind a warming cache image
// (qcow Image.SetBacking): every backing read the copy-on-read fill path
// issues — whether triggered by a swarm worker pulling its assigned chunk or
// by a concurrent guest demand miss — lands here and is routed to a peer or
// to the origin (storage node). Because the routing sits *under* the
// singleflight fill, a swarm fetch and a demand miss for the same cluster
// still cost exactly one source read.
//
// Worker-assigned chunks read from exactly the assigned source; a failure
// propagates up so the scheduler can reassign (the retry policy stays in one
// place). Demand reads with no assignment fail over internally — least-loaded
// advertising peer, then the remaining peers, then origin — because a guest
// read must succeed now, not after a scheduling round.
type Source struct {
	origin BlockSource
	sched  *Scheduler
	sess   *Session

	mu       sync.Mutex
	assigned map[int64]PeerID

	bytesPeer    atomic.Int64
	bytesStorage atomic.Int64
}

// Size implements BlockSource: the virtual size of the origin.
func (s *Source) Size() int64 { return s.origin.Size() }

// BytesPeer reports payload bytes actually fetched from peers through this
// source (assigned and demand reads both).
func (s *Source) BytesPeer() int64 { return s.bytesPeer.Load() }

// BytesStorage reports payload bytes actually fetched from the origin.
func (s *Source) BytesStorage() int64 { return s.bytesStorage.Load() }

// assign routes subsequent backing reads of chunk to peer (Storage for the
// origin) until unassign.
func (s *Source) assign(chunk int64, peer PeerID) {
	s.mu.Lock()
	s.assigned[chunk] = peer
	s.mu.Unlock()
}

func (s *Source) unassign(chunk int64) {
	s.mu.Lock()
	delete(s.assigned, chunk)
	s.mu.Unlock()
}

// ReadAt implements BlockSource. The fill path always issues full reads
// within the backing size; spans crossing chunk boundaries are split so each
// piece uses its own chunk's routing.
func (s *Source) ReadAt(p []byte, off int64) (int, error) {
	done := 0
	for done < len(p) {
		pos := off + int64(done)
		chunk := pos >> chunkBits
		n := len(p) - done
		if rem := (chunk+1)*ChunkSize - pos; int64(n) > rem {
			n = int(rem)
		}
		if err := s.readChunkPiece(p[done:done+n], pos, chunk); err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

func (s *Source) readChunkPiece(p []byte, off, chunk int64) error {
	s.mu.Lock()
	peer, isAssigned := s.assigned[chunk]
	s.mu.Unlock()
	if isAssigned {
		if peer == Storage {
			return s.readOrigin(p, off)
		}
		if err := s.sess.readFromPeer(peer, p, off); err != nil {
			return err
		}
		s.bytesPeer.Add(int64(len(p)))
		return nil
	}
	// Demand read: fail over across advertising peers, then origin.
	var exclude map[PeerID]bool
	for {
		id, ok := s.sched.PeerFor(chunk, exclude)
		if !ok {
			return s.readOrigin(p, off)
		}
		if err := s.sess.readFromPeer(id, p, off); err == nil {
			s.bytesPeer.Add(int64(len(p)))
			return nil
		}
		if exclude == nil {
			exclude = make(map[PeerID]bool)
		}
		exclude[id] = true
	}
}

func (s *Source) readOrigin(p []byte, off int64) error {
	n, err := s.origin.ReadAt(p, off)
	if err != nil {
		return err
	}
	if n < len(p) {
		return io.ErrUnexpectedEOF
	}
	s.bytesStorage.Add(int64(n))
	return nil
}
