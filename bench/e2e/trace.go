package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
)

// Span names. The hierarchy of one traced op is
//
//	op ⊃ cachemgr.acquire ⊃ {rblock.backing_read, backend.warm_write, backend.warm_sync}*
//	   ⊃ cachemgr.attach
//	   ⊃ boot.replay ⊃ {boot.read, boot.write, boot.flush}*
//	   ⊃ cachemgr.close
//
// with rblock.backing_read also appearing under whichever span a read of the
// remote base happens in (attach re-opens the base on every boot).
const (
	spanOp          = "op"
	spanAcquire     = "cachemgr.acquire"
	spanAttach      = "cachemgr.attach"
	spanClose       = "cachemgr.close"
	spanReplay      = "boot.replay"
	spanRead        = "boot.read"
	spanWrite       = "boot.write"
	spanFlush       = "boot.flush"
	spanBackingRead = "rblock.backing_read"
	spanWarmWrite   = "backend.warm_write"
	spanWarmSync    = "backend.warm_sync"
)

// span is one timed interval of the traced pass. Times are nanoseconds since
// the tracer started; Parent is the ID of the enclosing span (0 for an op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The traced pass runs one client, so there
// is one open op at a time; the stack holds its open spans. Wrapped files may
// be called from goroutines the layers start, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // indexes into spans of the open spans, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == spanOp {
		t.op++
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(idx int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == idx {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// in times fn as a span; a nil tracer just runs it, which is how the untraced
// pass shares the op code without paying for spans.
func (t *tracer) in(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	idx := t.begin(name)
	err := fn()
	t.end(idx)
	return err
}

// leaf records a span observed by a wrapper: a child of the innermost open
// span, dropped when no op is open (set-up and teardown traffic).
func (t *tracer) leaf(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.spans[t.stack[n-1]].ID, Op: t.op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceSummary is what the per-layer metrics take from the spans.
type traceSummary struct {
	ops         int
	durMs       map[string][]float64 // span name → durations
	perOpMs     map[string]float64   // span name → mean total per op
	countPerOp  map[string]float64
	selfPerOpMs map[string]float64
	coveragePct float64 // Σ self times ÷ Σ op totals
}

// summarize derives durations and self times. A span's self time is its
// duration minus the part of it its children cover (their union, so children
// that overlap are not subtracted twice).
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	s := traceSummary{
		durMs: map[string][]float64{}, perOpMs: map[string]float64{},
		countPerOp: map[string]float64{}, selfPerOpMs: map[string]float64{},
	}
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var opTotal, selfTotal float64
	for _, sp := range spans {
		dur := float64(sp.End-sp.Start) / 1e6
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, until int64
		until = sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		self := dur - float64(covered)/1e6
		s.durMs[sp.Name] = append(s.durMs[sp.Name], dur)
		s.perOpMs[sp.Name] += dur
		s.countPerOp[sp.Name]++
		s.selfPerOpMs[sp.Name] += self
		selfTotal += self
		if sp.Name == spanOp {
			s.ops++
			opTotal += dur
		}
	}
	if s.ops > 0 {
		for _, m := range []map[string]float64{s.perOpMs, s.countPerOp, s.selfPerOpMs} {
			for k := range m {
				m[k] /= float64(s.ops)
			}
		}
	}
	if opTotal > 0 {
		s.coveragePct = 100 * selfTotal / opTotal
	}
	return s
}

// tracedStore wraps the public Config.Backing seam: every read of the remote
// base becomes an rblock.backing_read span.
type tracedStore struct {
	backend.Store
	t *tracer
}

func (s tracedStore) Open(name string, readOnly bool) (backend.File, error) {
	f, err := s.Store.Open(name, readOnly)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: s.t, read: spanBackingRead}, nil
}

// tracedFile times the calls whose span name is set and forwards the rest.
type tracedFile struct {
	backend.File
	t                 *tracer
	read, write, sync string
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.read == "" {
		return f.File.ReadAt(p, off)
	}
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.leaf(f.read, start)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.write == "" {
		return f.File.WriteAt(p, off)
	}
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.leaf(f.write, start)
	return n, err
}

func (f *tracedFile) Sync() error {
	if f.sync == "" {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.leaf(f.sync, start)
	return err
}

// wrapWarmFile is installed as Config.WrapWarmFile: the warming container's
// writes and syncs become backend.warm_* spans.
func (t *tracer) wrapWarmFile(f backend.File) backend.File {
	return &tracedFile{File: f, t: t, write: spanWarmWrite, sync: spanWarmSync}
}

// tracedDevice times the guest's view of each replayed operation.
type tracedDevice struct {
	dev boot.Device
	t   *tracer
}

func (d tracedDevice) ReadAt(p []byte, off int64) (n int, err error) {
	d.t.in(spanRead, func() error { n, err = d.dev.ReadAt(p, off); return nil }) //nolint:errcheck // err captured
	return n, err
}

func (d tracedDevice) WriteAt(p []byte, off int64) (n int, err error) {
	d.t.in(spanWrite, func() error { n, err = d.dev.WriteAt(p, off); return nil }) //nolint:errcheck // err captured
	return n, err
}

func (d tracedDevice) Sync() error {
	return d.t.in(spanFlush, func() error {
		if s, ok := d.dev.(boot.Syncer); ok {
			return s.Sync()
		}
		return nil
	})
}
