// Package sim is a deterministic discrete-event simulator with lightweight
// processes. The cluster experiments of the paper (65 nodes, two networks,
// contended disks) run as sim processes: each booting VM is a process whose
// I/O requests acquire modelled resources (links, disks, page cache) while
// the data itself flows through the real image-format code under test.
//
// Concurrency model: exactly one process runs at any instant; the engine and
// the running process hand control to each other over channels. Determinism
// follows from the event queue's (time, sequence) ordering; two runs of the
// same scenario produce identical timings.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine owns simulated time and the event queue.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	park   chan struct{} // running process -> engine handoff
	rnd    *rand.Rand
	err    error
}

// New returns an engine at time zero with a deterministic RNG.
func New(seed int64) *Engine {
	return &Engine{
		park: make(chan struct{}),
		rnd:  rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic RNG. It must only be used from
// process context or event callbacks (never concurrently).
func (e *Engine) Rand() *rand.Rand { return e.rnd }

// At schedules fn to run after delay d (>= 0) from now.
func (e *Engine) At(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	heap.Push(&e.events, &event{at: e.now + d, seq: e.seq, fn: fn})
}

// Proc is a simulated process. Its methods must be called from the process's
// own goroutine (the function passed to Go).
type Proc struct {
	eng  *Engine
	wake chan struct{}
	name string
}

// Name reports the process name.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Go spawns a process that starts at the current simulated time.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, wake: make(chan struct{}), name: name}
	e.At(0, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil && e.err == nil {
					e.err = fmt.Errorf("sim: process %q panicked: %v", name, r)
				}
				e.park <- struct{}{}
			}()
			<-p.wake // wait for the engine to give us the floor
			fn(p)
		}()
		e.handoff(p)
	})
	return p
}

// handoff transfers control to p and waits until it blocks or exits.
func (e *Engine) handoff(p *Proc) {
	p.wake <- struct{}{}
	<-e.park
}

// Sleep suspends the process for simulated duration d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.At(d, func() { e.handoff(p) })
	p.yield()
}

// SleepUntil suspends the process until absolute simulated time t.
func (p *Proc) SleepUntil(t time.Duration) {
	p.Sleep(t - p.eng.now)
}

// yield returns control to the engine and blocks until resumed.
func (p *Proc) yield() {
	e := p.eng
	e.park <- struct{}{}
	<-p.wake
}

// Run processes events until the queue is empty, or until a process panics,
// returning the first panic.
func (e *Engine) Run() error {
	for len(e.events) > 0 && e.err == nil {
		ev := heap.Pop(&e.events).(*event)
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
	return e.err
}
