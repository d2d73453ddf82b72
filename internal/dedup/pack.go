package dedup

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The pack format. A pack is an append-only file of blob records behind an
// 8-byte header:
//
//	"VMPK" 0 0 0 <version>
//	record*:  key[32] | wireLen u32 | crc u32 | wire blob[wireLen]
//
// The wire blob is the length-framed DEFLATE chunk exactly as OpChunkBatch
// ships it (8-byte big-endian raw length + flate stream), so serving a peer
// is a pread. crc is CRC-32C over key, wireLen and the wire blob: it is what lets
// a reader tell a whole record from the torn or never-written tail a crash
// leaves behind the last fsync. A pack has no index and no footer — the
// records are the index, rebuilt by one sequential scan at Open.
const (
	packDirName = "packs"
	packSuffix  = ".pk"
	packMagic   = "VMPK\x00\x00\x00\x01"
	packHdrLen  = len(packMagic)
	recHdrLen   = sha256.Size + 4 + 4

	// maxWireLen bounds one record's payload: the largest raw chunk
	// DecodeBlob accepts plus room for DEFLATE's stored-block framing. A
	// scanner never sizes a buffer from a length field above it.
	maxWireLen = blobHdrLen + 2*MaxChunk + 2*MaxChunk/8

	// packTarget is where the active pack stops growing and a new one
	// starts, which bounds both the dead space one pack can pin before the
	// copy-forward rule fires and the bytes one copy-forward moves.
	packTarget = 64 << 20

	// copyRun bounds one pread of a copy-forward: a run of adjacent live
	// records stops growing past it.
	copyRun = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pack is one pack file held open for pread. Fields are guarded by the
// store lock.
type pack struct {
	seq    uint64
	f      *os.File
	size   int64 // bytes in the file: header, records live or dead, torn tail
	live   int64 // bytes of the records the index points at
	synced int64 // size at the last successful fsync; sealed packs start clean
}

func packName(seq uint64) string { return fmt.Sprintf("%08d%s", seq, packSuffix) }

func parsePackName(name string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, packSuffix), 10, 64)
	if err != nil || packName(seq) != name {
		return 0, false
	}
	return seq, true
}

// recordCRC is the checksum a record header carries: CRC-32C over the
// header's key and length fields and the wire blob.
func recordCRC(hdr, wire []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:sha256.Size+4], castagnoli), castagnoli, wire)
}

// appendRecord renders the record of blob k into buf (reset first) and
// returns it.
func appendRecord(buf []byte, k Key, wire []byte) []byte {
	buf = append(buf[:0], k[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(wire)))
	buf = binary.BigEndian.AppendUint32(buf, recordCRC(buf, wire))
	return append(buf, wire...)
}

// scanPack reads a pack from its first byte and calls visit for every
// well-formed record, in file order, with the record's offset and its wire
// blob (valid during the call). It stops at the first record that is short,
// oversized, fails its CRC or carries an impossible raw length — everything
// from there on is a crash tail or damage, never indexed — and returns the
// length of the well-formed prefix. Only an I/O error is an error; a pack
// that is garbage from byte 0 scans as zero records.
func scanPack(r io.Reader, visit func(k Key, off int64, wire []byte)) (int64, error) {
	// ioErr separates "the file ends here" from "the disk failed": the
	// first ends the scan, the second must not make live records look dead.
	ioErr := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		return err
	}
	br := bufio.NewReaderSize(r, 256<<10)
	var hdr [packHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, ioErr(err)
	}
	if string(hdr[:]) != packMagic {
		return 0, nil
	}
	off := int64(packHdrLen)
	var rh [recHdrLen]byte
	var wire []byte
	for {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return off, ioErr(err)
		}
		n := binary.BigEndian.Uint32(rh[sha256.Size:])
		if n < blobHdrLen || n > maxWireLen {
			return off, nil
		}
		if uint32(cap(wire)) < n {
			wire = make([]byte, n)
		}
		wire = wire[:n]
		if _, err := io.ReadFull(br, wire); err != nil {
			return off, ioErr(err)
		}
		if recordCRC(rh[:], wire) != binary.BigEndian.Uint32(rh[sha256.Size+4:]) {
			return off, nil
		}
		k := Key(rh[:sha256.Size])
		if _, err := blobRawLen(k, wire); err != nil {
			return off, nil
		}
		visit(k, off, wire)
		off += recHdrLen + int64(n)
	}
}

func (s *BlobStore) packDir() string { return filepath.Join(s.dir, packDirName) }

// openPacks indexes the packs on disk, oldest first. Every pack found here
// is sealed: opened read-only and from now on only read or unlinked, so a
// crash tail stays where it is and a hard-linked sibling of this store can
// never be changed through it. Only records some manifest references are
// indexed (the first copy of a key wins; a later one is dead space) — the
// rest are the orphans of a publication that never committed.
func (s *BlobStore) openPacks() error {
	ents, err := os.ReadDir(s.packDir())
	if err != nil {
		return err
	}
	for _, de := range ents { // ReadDir sorts by name, and names sort by seq
		path := filepath.Join(s.packDir(), de.Name())
		seq, ok := parsePackName(de.Name())
		if !ok {
			os.Remove(path) //nolint:errcheck // stray file, best effort
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close() //nolint:errcheck // read-only handle
			return err
		}
		p := &pack{seq: seq, f: f, size: fi.Size(), synced: fi.Size()}
		_, err = scanPack(f, func(k Key, off int64, wire []byte) {
			if _, dup := s.blobs[k]; dup || s.refs[k] == 0 {
				return
			}
			s.indexLocked(k, blobLoc{p: p, off: off, wireLen: uint32(len(wire)), rawLen: uint32(binary.BigEndian.Uint64(wire))})
		})
		if err != nil {
			f.Close() //nolint:errcheck // read-only handle
			return fmt.Errorf("dedup: scanning %s: %w", path, err)
		}
		s.packs = append(s.packs, p)
		s.physical += p.size
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return nil
}

// activeLocked returns the pack the next record of n bytes goes to,
// creating it — or sealing a full one and starting the next — as needed.
func (s *BlobStore) activeLocked(n int) (*pack, error) {
	if p := s.active; p != nil && p.size+int64(n) <= packTarget {
		return p, nil
	}
	path := filepath.Join(s.packDir(), packName(s.nextSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(packMagic); err != nil {
		f.Close()       //nolint:errcheck // already failing
		os.Remove(path) //nolint:errcheck // best effort
		return nil, err
	}
	p := &pack{seq: s.nextSeq, f: f, size: int64(packHdrLen)}
	s.nextSeq++
	s.packs = append(s.packs, p)
	s.physical += p.size
	s.dirDirty = true
	s.active = p // the pack it replaces stays dirty until the next flush
	return p, nil
}

// writeRecordLocked appends blob k's record to the active pack in one write
// and returns where it landed; the caller indexes it. A failed or short
// write seals the pack: records are only ever found by scanning up to the
// first malformed one, so nothing may follow a tear.
func (s *BlobStore) writeRecordLocked(k Key, wire []byte) (blobLoc, error) {
	rawLen, err := blobRawLen(k, wire)
	if err != nil {
		return blobLoc{}, err
	}
	if len(wire) > maxWireLen {
		return blobLoc{}, fmt.Errorf("%w: %s: %d byte frame", ErrCorruptBlob, k, len(wire))
	}
	p, err := s.activeLocked(recHdrLen + len(wire))
	if err != nil {
		return blobLoc{}, err
	}
	s.recBuf = appendRecord(s.recBuf, k, wire)
	s.writes.Add(1)
	n, err := p.f.Write(s.recBuf)
	loc := blobLoc{p: p, off: p.size, wireLen: uint32(len(wire)), rawLen: uint32(rawLen)}
	p.size += int64(n)
	s.physical += int64(n)
	if err != nil {
		s.active = nil
		return blobLoc{}, fmt.Errorf("dedup: appending to %s: %w", packName(p.seq), err)
	}
	return loc, nil
}

// flushLocked makes every appended record durable: one fsync per pack with
// unsynced bytes (the active one, plus a pack sealed since the last flush)
// and one of the directory if a pack was created. A pack only counts as
// synced after its fsync returned nil, so a failed flush leaves the store
// dirty and the next Commit tries again instead of publishing over it.
func (s *BlobStore) flushLocked() error {
	for _, p := range s.packs {
		if p.synced == p.size {
			continue
		}
		if err := s.syncFile(p.f); err != nil {
			return fmt.Errorf("dedup: syncing %s: %w", packName(p.seq), err)
		}
		p.synced = p.size
	}
	if s.dirDirty {
		if err := s.syncDir(s.packDir()); err != nil {
			return err
		}
		s.dirDirty = false
	}
	return nil
}

// reclaimLocked gives dead space back, by the two rules the layout allows:
// a pack none of whose records is live is unlinked, and a pack more than
// half dead has its live records copied forward into the active pack,
// flushed, and is then unlinked. The active pack is sealed first when it
// qualifies, so the rules only ever touch packs nobody appends to.
func (s *BlobStore) reclaimLocked() {
	for _, p := range append([]*pack(nil), s.packs...) {
		if p.live > 0 && (p.size-p.live)*2 <= p.size {
			continue
		}
		if p == s.active {
			s.active = nil
		}
		if p.live > 0 && s.copyForwardLocked(p) != nil {
			continue // still whole and still indexed; the next reclaim retries
		}
		s.retireLocked(p)
	}
}

// copyForwardLocked re-appends p's live records to the active pack and,
// once they are durable there, points the index at the copies. Until then
// the index keeps naming p, so a failure costs dead bytes, never a blob. The
// records are the ones the index places in p, read with one pread per run of
// adjacent records (up to copyRun bytes); a record that fails its CRC is
// de-indexed, as quarantine does, and counts as dead, so one damaged record
// cannot keep a pack from retiring.
func (s *BlobStore) copyForwardLocked(p *pack) error {
	type move struct {
		k   Key
		loc blobLoc
	}
	var recs, moves []move
	for k, loc := range s.blobs {
		if loc.p == p {
			recs = append(recs, move{k, loc})
		}
	}
	slices.SortFunc(recs, func(a, b move) int { return cmp.Compare(a.loc.off, b.loc.off) })
	var buf []byte
	for i := 0; i < len(recs); {
		start, end, j := recs[i].loc.off, recs[i].loc.off+recs[i].loc.recLen(), i+1
		for ; j < len(recs) && recs[j].loc.off == end && end-start < copyRun; j++ {
			end += recs[j].loc.recLen()
		}
		buf = slices.Grow(buf[:0], int(end-start))[:end-start]
		s.reads.Add(1)
		n, err := p.f.ReadAt(buf, start)
		if err != nil && err != io.EOF {
			return fmt.Errorf("dedup: copying %s forward: %w", packName(p.seq), err)
		}
		for _, r := range recs[i:j] {
			rec := buf[min(int64(n), r.loc.off-start):min(int64(n), r.loc.off-start+r.loc.recLen())]
			if int64(len(rec)) < r.loc.recLen() || binary.BigEndian.Uint32(rec[sha256.Size:]) != r.loc.wireLen ||
				recordCRC(rec, rec[recHdrLen:]) != binary.BigEndian.Uint32(rec[sha256.Size+4:]) {
				delete(s.blobs, r.k)
				p.live -= r.loc.recLen()
				continue
			}
			loc, err := s.writeRecordLocked(r.k, rec[recHdrLen:])
			if err != nil {
				return err
			}
			moves = append(moves, move{r.k, loc})
		}
		i = j
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	for _, mv := range moves {
		s.indexLocked(mv.k, mv.loc)
	}
	p.live = 0
	return nil
}

// retireLocked unlinks a pack and closes its descriptor. A reader that
// looked the pack up before this sees os.ErrClosed and looks again.
func (s *BlobStore) retireLocked(p *pack) {
	os.Remove(filepath.Join(s.packDir(), packName(p.seq))) //nolint:errcheck // an all-dead pack left behind is unlinked at the next Open
	p.f.Close()                                            //nolint:errcheck // nothing of it is needed any more
	s.physical -= p.size
	for i, q := range s.packs {
		if q == p {
			s.packs = append(s.packs[:i], s.packs[i+1:]...)
			break
		}
	}
}

// importLegacy moves a file-per-blob tree (blobs/<hh>/<hex>.z, the layout
// before packs) into a pack, once: referenced blobs are appended and
// flushed, then the tree is removed. Nothing reads that layout afterwards.
func (s *BlobStore) importLegacy() error {
	root := filepath.Join(s.dir, "blobs")
	if _, err := os.Stat(root); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		b, err := hex.DecodeString(strings.TrimSuffix(de.Name(), ".z"))
		if err != nil || len(b) != sha256.Size {
			return nil // temp file or stranger: goes with the tree
		}
		k := Key(b)
		if _, have := s.blobs[k]; have || s.refs[k] == 0 {
			return nil
		}
		wire, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		loc, err := s.writeRecordLocked(k, wire)
		if errors.Is(err, ErrCorruptBlob) {
			return nil // unusable frame: the manifest loses the chunk, as a reader would have found
		}
		if err != nil {
			return err
		}
		s.indexLocked(k, loc)
		return nil
	})
	if err == nil {
		err = s.flushLocked()
	}
	if err != nil {
		return fmt.Errorf("dedup: importing %s: %w", root, err)
	}
	return os.RemoveAll(root)
}
