package sim

import (
	"time"
)

// FIFO is a single-server queue with deterministic service times: the model
// used for disks and network links. Because service is work-conserving and
// order-preserving, the queue's state is just the time the server frees up.
type FIFO struct {
	eng       *Engine
	name      string
	busyUntil time.Duration
	busyTime  time.Duration
}

// NewFIFO returns an idle FIFO resource.
func NewFIFO(eng *Engine, name string) *FIFO {
	return &FIFO{eng: eng, name: name}
}

// Use enqueues a job with the given service time and blocks the process
// until the job completes. Returns the time spent waiting in queue (not
// serving).
func (q *FIFO) Use(p *Proc, service time.Duration) time.Duration {
	if service < 0 {
		service = 0
	}
	now := q.eng.now
	start := q.busyUntil
	if start < now {
		start = now
	}
	wait := start - now
	q.busyUntil = start + service
	q.busyTime += service
	p.SleepUntil(q.busyUntil)
	return wait
}

// Utilization reports the fraction of simulated time the server was busy.
func (q *FIFO) Utilization() float64 {
	if q.eng.now == 0 {
		return 0
	}
	return float64(q.busyTime) / float64(q.eng.now)
}
