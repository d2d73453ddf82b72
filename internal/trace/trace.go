package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Op identifies the kind of a traced block access.
type Op uint8

// Trace operation kinds.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one traced block access.
type Record struct {
	When   time.Duration // time since trace start
	Op     Op
	Offset int64
	Length int64
}

// Trace is an in-memory sequence of block accesses.
type Trace struct {
	Records []Record
}

// Append adds a record.
func (t *Trace) Append(r Record) { t.Records = append(t.Records, r) }

// Len reports the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// WorkingSet summarises a trace the way §2.3 of the paper does.
type WorkingSet struct {
	UniqueReadBytes  int64 // size of unique reads (Table 1's metric)
	TotalReadBytes   int64 // all read bytes incl. re-reads
	UniqueWriteBytes int64
	TotalWriteBytes  int64
	ReadOps          int64
	WriteOps         int64
	FlushOps         int64
	ReadIntervals    int // disjoint regions touched by reads
}

// Analyze computes the working set of a trace.
func Analyze(t *Trace) WorkingSet {
	var ws WorkingSet
	var reads, writes IntervalSet
	for _, r := range t.Records {
		switch r.Op {
		case OpRead:
			ws.ReadOps++
			ws.TotalReadBytes += r.Length
			reads.Add(r.Offset, r.Offset+r.Length)
		case OpWrite:
			ws.WriteOps++
			ws.TotalWriteBytes += r.Length
			writes.Add(r.Offset, r.Offset+r.Length)
		case OpFlush:
			ws.FlushOps++
		}
	}
	ws.UniqueReadBytes = reads.Total()
	ws.UniqueWriteBytes = writes.Total()
	ws.ReadIntervals = reads.Count()
	return ws
}

// binary trace file format: magic, version, then fixed-size records.
const (
	fileMagic   = 0x564d4954 // "VMIT"
	fileVersion = 1
)

var errBadTrace = errors.New("trace: bad file header")

// Save writes the trace in a compact binary format.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], fileMagic)
	binary.BigEndian.PutUint32(hdr[4:], fileVersion)
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(t.Records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [25]byte
	for _, r := range t.Records {
		binary.BigEndian.PutUint64(rec[0:], uint64(r.When))
		rec[8] = byte(r.Op)
		binary.BigEndian.PutUint64(rec[9:], uint64(r.Offset))
		binary.BigEndian.PutUint64(rec[17:], uint64(r.Length))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != fileMagic ||
		binary.BigEndian.Uint32(hdr[4:]) != fileVersion {
		return nil, errBadTrace
	}
	n := binary.BigEndian.Uint64(hdr[8:])
	const maxRecords = 1 << 30
	if n > maxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	t := &Trace{Records: make([]Record, 0, n)}
	var rec [25]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		t.Records = append(t.Records, Record{
			When:   time.Duration(binary.BigEndian.Uint64(rec[0:])),
			Op:     Op(rec[8]),
			Offset: int64(binary.BigEndian.Uint64(rec[9:])),
			Length: int64(binary.BigEndian.Uint64(rec[17:])),
		})
	}
	return t, nil
}

// Recorder captures block accesses with timestamps relative to its creation
// and keeps a running unique-read tally, so long boots can report their
// working set without retaining the full record list when KeepRecords is
// false.
type Recorder struct {
	KeepRecords bool
	start       time.Time
	trace       Trace
	reads       IntervalSet
	ws          WorkingSet
}

// NewRecorder returns a Recorder stamping records with wall-clock offsets.
func NewRecorder() *Recorder {
	r := &Recorder{KeepRecords: true, start: time.Now()}
	return r
}

func (r *Recorder) now() time.Duration {
	return time.Since(r.start)
}

// Read records a read access.
func (r *Recorder) Read(off, n int64) {
	r.ws.ReadOps++
	r.ws.TotalReadBytes += n
	r.ws.UniqueReadBytes += r.reads.Add(off, off+n)
	r.ws.ReadIntervals = r.reads.Count()
	if r.KeepRecords {
		r.trace.Append(Record{When: r.now(), Op: OpRead, Offset: off, Length: n})
	}
}

// Write records a write access.
func (r *Recorder) Write(off, n int64) {
	r.ws.WriteOps++
	r.ws.TotalWriteBytes += n
	if r.KeepRecords {
		r.trace.Append(Record{When: r.now(), Op: OpWrite, Offset: off, Length: n})
	}
}

// Flush records a flush.
func (r *Recorder) Flush() {
	r.ws.FlushOps++
	if r.KeepRecords {
		r.trace.Append(Record{When: r.now(), Op: OpFlush})
	}
}

// WorkingSet reports the running summary. UniqueWriteBytes is only filled in
// by Analyze on a full trace.
func (r *Recorder) WorkingSet() WorkingSet { return r.ws }

// Trace returns the captured records (empty unless KeepRecords).
func (r *Recorder) Trace() *Trace { return &r.trace }
