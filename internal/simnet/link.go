// Package simnet models the two DAS-4 interconnects of §5: commodity
// 1 Gb/s Ethernet and 32 Gb/s QDR InfiniBand. A Link is the storage node's
// network attachment: a FIFO-shared pipe all compute nodes' transfers queue
// on, plus per-request latency that concurrent requesters do NOT share
// (propagation and server processing overlap across nodes).
package simnet

import (
	"time"

	"vmicache/internal/sim"
)

// LinkParams describes one interconnect.
type LinkParams struct {
	// Name labels the network in results ("1GbE", "32GbIB").
	Name string

	// Bandwidth is the raw link rate in bytes/second.
	Bandwidth int64

	// Efficiency scales Bandwidth to the achievable goodput for the
	// paper's workload: small synchronous NFS reads with rwsize 64 KiB.
	Efficiency float64

	// PerRequest is the non-shared latency of one request/response pair:
	// propagation, interrupt handling, NFS server processing. Concurrent
	// requests from different nodes overlap on this component.
	PerRequest time.Duration

	// MaxSegment splits transfers into rwsize-style segments; each
	// segment pays SegmentOverhead of queued (shared) time.
	MaxSegment      int64
	SegmentOverhead time.Duration
}

// GbE returns the commodity 1 Gb Ethernet model. Calibration: one stream of
// 24 KiB synchronous reads achieves ~6 MB/s (boot-time single-VM reads at
// ~4 ms/request); the shared link saturates at ~53 MB/s of goodput, which 64
// concurrently booting CentOS VMs exceed by ~4x (Fig. 2's linear regime).
func GbE() LinkParams {
	return LinkParams{
		Name:            "1GbE",
		Bandwidth:       117 << 20, // 1 Gb/s on the wire
		Efficiency:      0.45,
		PerRequest:      3500 * time.Microsecond,
		MaxSegment:      64 << 10,
		SegmentOverhead: 30 * time.Microsecond,
	}
}

// IB returns the 32 Gb QDR InfiniBand model (IPoIB for NFS): vastly higher
// bandwidth and a much cheaper request path.
func IB() LinkParams {
	return LinkParams{
		Name:            "32GbIB",
		Bandwidth:       3200 << 20, // 25.6 Gb/s effective payload rate
		Efficiency:      0.70,
		PerRequest:      360 * time.Microsecond,
		MaxSegment:      64 << 10,
		SegmentOverhead: 5 * time.Microsecond,
	}
}

// Link is one shared network attachment.
type Link struct {
	p LinkParams
	q *sim.FIFO

	Bytes    int64
	Requests int64
}

// NewLink returns an idle link.
func NewLink(eng *sim.Engine, p LinkParams) *Link {
	return &Link{p: p, q: sim.NewFIFO(eng, p.Name)}
}

// goodput returns the effective shared rate in bytes/second.
func (l *Link) goodput() float64 {
	return float64(l.p.Bandwidth) * l.p.Efficiency
}

// Transfer moves n bytes through the shared pipe on behalf of p: the time in
// queue is the data's serialisation at goodput plus per-segment overhead;
// afterwards the process pays the non-shared per-request latency once.
// Returns the total time the process was blocked.
func (l *Link) Transfer(p *sim.Proc, n int64) time.Duration {
	start := p.Now()
	segs := int64(1)
	if l.p.MaxSegment > 0 && n > l.p.MaxSegment {
		segs = (n + l.p.MaxSegment - 1) / l.p.MaxSegment
	}
	service := time.Duration(float64(n)/l.goodput()*float64(time.Second)) +
		time.Duration(segs)*l.p.SegmentOverhead
	l.Bytes += n
	l.Requests++
	l.q.Use(p, service)
	p.Sleep(l.p.PerRequest)
	return p.Now() - start
}

// Queue exposes the underlying FIFO for utilization statistics.
func (l *Link) Queue() *sim.FIFO { return l.q }
