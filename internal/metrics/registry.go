package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the live-instrument half of the package: a concurrent-safe
// registry of named counters, gauges, and logarithmic histograms that the
// running daemons expose over /metrics (Prometheus text) and /metrics.json.
// Instruments are plain atomics — the data-path hot paths (warm reads) touch
// only atomic.Int64.Add, never a mutex or a map — while the registry's mutex
// guards registration and scrape-time iteration only.
//
// Naming scheme (documented in DESIGN.md §7): every instrument is
// "vmicache_<subsystem>_<metric>[_<unit>]", units are "_total" for counters,
// "_bytes"/"_ns" for sizes and durations, and per-object dimensions (image
// name, export, peer) are labels, never name fragments.

// Labels is an optional set of constant key=value dimensions attached to an
// instrument at registration time.
type Labels map[string]string

// With returns a copy of l with one extra (or overridden) label.
func (l Labels) With(k, v string) Labels {
	out := make(Labels, len(l)+1)
	for lk, lv := range l {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// key renders the labels deterministically for identity and exposition.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	ks := make([]string, 0, len(l))
	for k := range l {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// AtomicHistogram is the concurrent form of Histogram: a base-2 logarithmic
// histogram over non-negative int64 values (latencies in nanoseconds, sizes
// in bytes) whose buckets are individually atomic. Observe is lock-free and
// allocation-free; Snapshot reads the buckets without stopping writers, so a
// snapshot taken under concurrent Observes is approximate (each field is
// individually consistent), which is the usual scrape contract.
type AtomicHistogram struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value; negative values are clamped to zero. Bucket i
// holds values in [2^i, 2^(i+1)); values < 1 land in bucket 0.
func (h *AtomicHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	if v >= 1 {
		i = bits.Len64(uint64(v)) - 1 // floor(log2(v))
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram's current state.
func (h *AtomicHistogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, BucketCount{Exp: i, Count: n})
		}
	}
	return s
}

// kind discriminates instrument flavours in snapshots and exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric: a value read function (counter/gauge)
// or a histogram.
type instrument struct {
	name   string
	help   string
	labels Labels
	lkey   string
	kind   kind
	read   func() int64
	hist   *AtomicHistogram
}

// Registry holds named instruments. The zero value is NOT ready; use
// NewRegistry. All methods are safe for concurrent use; instrument updates
// themselves never touch the registry.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*instrument
	ins  []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

func id(name, lkey string) string { return name + "\x00" + lkey }

// register installs inst, panicking on an identity collision with a
// different kind (a programming error: two subsystems claiming one name).
// Re-registering the same identity and kind keeps the first instrument,
// which makes dynamic registrations (per-image counters) idempotent.
func (r *Registry) register(inst *instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := id(inst.name, inst.lkey)
	if old, ok := r.byID[key]; ok {
		if old.kind != inst.kind {
			panic(fmt.Sprintf("metrics: %s{%s} re-registered as %s (was %s)",
				inst.name, inst.lkey, inst.kind, old.kind))
		}
		return
	}
	r.byID[key] = inst
	r.ins = append(r.ins, inst)
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — the bridge that exposes an existing atomic (a Stats field) without
// changing the code that increments it. Re-registering the same identity is
// a no-op keeping the first function.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.register(&instrument{
		name: name, help: help, labels: labels, lkey: labels.key(),
		kind: kindCounter, read: fn,
	})
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() int64) {
	r.register(&instrument{
		name: name, help: help, labels: labels, lkey: labels.key(),
		kind: kindGauge, read: fn,
	})
}

// RegisterHistogram exposes an existing histogram (one embedded in a Stats
// struct) under the given identity.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *AtomicHistogram) {
	r.register(&instrument{
		name: name, help: help, labels: labels, lkey: labels.key(),
		kind: kindHistogram, hist: h,
	})
}
