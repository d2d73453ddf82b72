// Package simdisk models the storage media of the DAS-4 testbed under
// simulated time: rotational disks with seek-dominated random access and a
// FIFO request queue (the "disk queueing delay at the storage node" that
// drives Fig. 3), an LRU page cache (why a single VMI scales flat over
// InfiniBand in Fig. 2), and memory/tmpfs media.
package simdisk

import (
	"time"

	"vmicache/internal/sim"
)

// DiskParams describes a disk (or RAID set) model.
type DiskParams struct {
	// SeekTime is the average positioning cost of a random access
	// (seek + rotational latency).
	SeekTime time.Duration

	// Throughput is the sequential media rate in bytes/second.
	Throughput int64

	// SeqSeekFraction is the probability that a *sequential-ish* access
	// still pays a seek (track switches, competing streams). Random
	// accesses always pay the full seek.
	SeqSeekFraction float64
}

// DAS4StorageRAID models the storage node's two 7200-rpm SATA disks in
// software RAID-0: ~220 MB/s streaming, and an effective per-request
// positioning cost of ~4.5 ms — a single spindle seeks in ~7 ms, but the
// RAID pair serves two streams and the elevator scheduler shortens seeks
// under the deep queues of Fig. 3's workload.
func DAS4StorageRAID() DiskParams {
	return DiskParams{SeekTime: 4500 * time.Microsecond, Throughput: 220 << 20, SeqSeekFraction: 0.5}
}

// DAS4ComputeDisk models a compute node's local RAID-0 pair. Cache images
// are small and laid out contiguously, so reads are mostly sequential with
// occasional repositioning; the OS page cache and readahead absorb most of
// the seek cost (§6 measures at most 1% boot-time difference versus remote
// memory).
func DAS4ComputeDisk() DiskParams {
	return DiskParams{SeekTime: 7 * time.Millisecond, Throughput: 120 << 20, SeqSeekFraction: 0.04}
}

// Disk is a queued disk device.
type Disk struct {
	p DiskParams
	q *sim.FIFO

	ReadBytes  int64
	WriteBytes int64
	ReadOps    int64
	WriteOps   int64
}

// NewDisk returns an idle disk.
func NewDisk(eng *sim.Engine, name string, p DiskParams) *Disk {
	return &Disk{p: p, q: sim.NewFIFO(eng, name)}
}

func (d *Disk) xferTime(n int64) time.Duration {
	if d.p.Throughput <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(d.p.Throughput) * float64(time.Second))
}

// Read blocks the process for one disk read of n bytes. random selects the
// full-seek path; otherwise only SeqSeekFraction of the seek is charged
// (amortised readahead).
func (d *Disk) Read(p *sim.Proc, n int64, random bool) {
	seek := d.p.SeekTime
	if !random {
		seek = time.Duration(float64(seek) * d.p.SeqSeekFraction)
	}
	d.ReadOps++
	d.ReadBytes += n
	d.q.Use(p, seek+d.xferTime(n))
}

// Write blocks the process for one disk write of n bytes. sync models a
// synchronous (O_SYNC / flush-per-write) write that pays positioning cost;
// async writes ride the write-back cache and cost only transfer time.
func (d *Disk) Write(p *sim.Proc, n int64, sync bool) {
	var seek time.Duration
	if sync {
		seek = d.p.SeekTime
	}
	d.WriteOps++
	d.WriteBytes += n
	d.q.Use(p, seek+d.xferTime(n))
}

// Queue exposes the underlying FIFO for utilization statistics.
func (d *Disk) Queue() *sim.FIFO { return d.q }

// MemParams describes a memory-like medium (tmpfs, page-cache hit).
type MemParams struct {
	// Bandwidth in bytes/second.
	Bandwidth int64
	// PerOp is the fixed software overhead per access.
	PerOp time.Duration
}

// DAS4Memory models tmpfs on the DAS-4 nodes: ~8 GB/s effective with a few
// microseconds of VFS overhead.
func DAS4Memory() MemParams {
	return MemParams{Bandwidth: 8 << 30, PerOp: 4 * time.Microsecond}
}

// Mem is a queued memory medium. A queue still exists because many
// concurrent readers do contend on a storage node's memory bus, but service
// times are small enough that it almost never becomes the bottleneck.
type Mem struct {
	p MemParams
	q *sim.FIFO

	Bytes int64
	Ops   int64
}

// NewMem returns a memory medium.
func NewMem(eng *sim.Engine, name string, p MemParams) *Mem {
	return &Mem{p: p, q: sim.NewFIFO(eng, name)}
}

// Access blocks the process for one memory access of n bytes.
func (m *Mem) Access(p *sim.Proc, n int64) {
	m.Ops++
	m.Bytes += n
	t := m.p.PerOp
	if m.p.Bandwidth > 0 {
		t += time.Duration(float64(n) / float64(m.p.Bandwidth) * float64(time.Second))
	}
	m.q.Use(p, t)
}

// ReadBatch blocks the process for a batch of ops random reads totalling n
// bytes, queued as one work-conserving FIFO job (equivalent to issuing them
// back to back). Used by coarse-grained simulations that charge a whole
// boot's disk work at once.
func (d *Disk) ReadBatch(p *sim.Proc, n, ops int64, random bool) {
	if ops < 1 {
		ops = 1
	}
	seek := d.p.SeekTime
	if !random {
		seek = time.Duration(float64(seek) * d.p.SeqSeekFraction)
	}
	d.ReadOps += ops
	d.ReadBytes += n
	d.q.Use(p, time.Duration(ops)*seek+d.xferTime(n))
}
