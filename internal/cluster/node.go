package cluster

import (
	"fmt"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/qcow"
	"vmicache/internal/sim"
	"vmicache/internal/simdisk"
)

// computeNode models one booting node: a local disk for cache images, a
// CoW image in local storage (absorbed by the node's write-back page cache)
// and an image chain whose remote legs charge the storage node's resources.
type computeNode struct {
	eng     *sim.Engine
	id      int
	vmi     int
	storage *storageNode
	p       Params

	localDisk *simdisk.Disk

	// proc is the node's running boot process; instrumentation hooks
	// charge simulated time against it.
	proc *sim.Proc

	// forceCold makes this node boot with a cold cache even in a
	// warm-cache experiment (mixed scenarios).
	forceCold bool

	cacheFills int64
	cacheHits  int64
	cacheUsed  int64
}

func newComputeNode(eng *sim.Engine, id int, storage *storageNode, p Params) *computeNode {
	return &computeNode{
		eng:       eng,
		id:        id,
		vmi:       id % p.VMIs,
		storage:   storage,
		p:         p,
		localDisk: simdisk.NewDisk(eng, fmt.Sprintf("node%d-disk", id), simdisk.DAS4ComputeDisk()),
	}
}

// remoteBase is the node's view of its VMI's base image on the storage
// node: every read charges the NFS-like remote path, then materialises the
// content from the deterministic source.
type remoteBase struct {
	n   *computeNode
	src boot.PatternSource
}

// ReadAt charges the remote read and returns the base content.
func (rb *remoteBase) ReadAt(p []byte, off int64) (int, error) {
	rb.n.storage.serveBase(rb.n.proc, rb.n.vmi, off, int64(len(p)))
	return rb.src.ReadAt(p, off)
}

// Size reports the base image's virtual size.
func (rb *remoteBase) Size() int64 { return rb.src.N }

// isCreator reports whether this node creates (and, for storage-memory
// placement, transfers) the cache for its VMI. "When VMIs are shared
// between VMs, only one of the VMs creates and transfers the cache back to
// the storage node while other VMs just proceed with normal QCOW2"
// (§5.3.2).
func (n *computeNode) isCreator() bool { return n.id < n.p.VMIs }

// buildChain assembles the node's image chain per the experiment's mode and
// placement, returning the guest-facing image and the cache image (nil in
// QCOW2 mode or for non-creators of a shared cold cache).
func (n *computeNode) buildChain() (cow, cache *qcow.Image, err error) {
	remote := &remoteBase{n: n, src: n.storage.baseSource(n.vmi)}
	var cowBacking qcow.BlockSource = remote
	backingName := n.storage.baseFileName(n.vmi)

	mode := n.p.Mode
	if mode == ModeWarmCache && n.forceCold {
		mode = ModeColdCache
	}
	switch mode {
	case ModeQCOW2:
		// Plain on-demand transfers.

	case ModeColdCache:
		if n.p.Placement == PlaceStorageMem && !n.isCreator() {
			// Non-creators proceed as plain QCOW2.
			break
		}
		var f backend.File = backend.NewMemFile()
		if n.p.ColdOnDisk {
			// Fig. 8's slow arrangement: the cache file lives on
			// the node's disk and every write is synchronous.
			hf := backend.NewHookFile(f)
			hf.OnWrite = func(off int64, sz int) {
				n.localDisk.Write(n.proc, int64(sz), true)
			}
			hf.OnRead = func(off int64, sz int) {
				n.localDisk.Read(n.proc, int64(sz), false)
			}
			f = hf
		}
		img, cerr := qcow.Create(f, qcow.CreateOpts{
			Size:        n.storage.profileFor(n.vmi).ImageSize,
			ClusterBits: n.p.CacheClusterBits,
			BackingFile: backingName,
			CacheQuota:  n.p.CacheQuota,
		})
		if cerr != nil {
			return nil, nil, cerr
		}
		img.SetBacking(remote)
		cache = img
		cowBacking = img
		backingName = fmt.Sprintf("cache-%d", n.vmi)

	case ModeWarmCache:
		shared := n.storage.warmCaches[n.vmi]
		var f backend.File = backend.NopClose(shared)
		switch n.p.Placement {
		case PlaceComputeDisk:
			// The warm cache sits on this node's local disk; its
			// small, contiguous file reads mostly sequentially.
			hf := backend.NewHookFile(f)
			hf.OnRead = func(off int64, sz int) {
				n.localDisk.Read(n.proc, int64(sz), false)
			}
			f = hf
		case PlaceStorageMem:
			// The warm cache sits in the storage node's tmpfs and
			// is read remotely.
			hf := backend.NewHookFile(f)
			hf.OnRead = func(off int64, sz int) {
				n.storage.serveCacheRead(n.proc, int64(sz))
			}
			f = hf
		case PlaceComputeMem:
			// Node memory: negligible cost.
		}
		img, oerr := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
		if oerr != nil {
			return nil, nil, oerr
		}
		img.SetBacking(remote)
		cache = img
		cowBacking = img
		backingName = fmt.Sprintf("cache-%d", n.vmi)
	}

	// The CoW image lives in the node's local storage; its writes ride
	// the write-back page cache and cost nothing on the boot path.
	cowImg, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size:        n.storage.profileFor(n.vmi).ImageSize,
		ClusterBits: n.p.CowClusterBits,
		BackingFile: backingName,
	})
	if err != nil {
		return nil, nil, err
	}
	cowImg.SetBacking(cowBacking)
	return cowImg, cache, nil
}

// bootVM runs one complete VM boot under simulated time: chain assembly,
// workload replay (think time + block I/O through the real image chain),
// and any post-boot cache transfer that the paper accounts into boot time.
func (n *computeNode) bootVM(proc *sim.Proc, w *boot.Workload) error {
	n.proc = proc
	cow, cache, err := n.buildChain()
	if err != nil {
		return err
	}

	buf := make([]byte, 64<<10)
	for i := range w.Ops {
		op := &w.Ops[i]
		if !n.p.NoThink && op.Think > 0 {
			proc.Sleep(op.Think)
		}
		switch op.Kind {
		case boot.Read:
			b := buf
			if op.Len > int64(len(b)) {
				b = make([]byte, op.Len)
			}
			if err := backend.ReadFull(cow, b[:op.Len], op.Off); err != nil {
				return fmt.Errorf("node %d: read %d+%d: %w", n.id, op.Off, op.Len, err)
			}
		case boot.Write:
			b := buf
			if op.Len > int64(len(b)) {
				b = make([]byte, op.Len)
			}
			fillGuestPattern(b[:op.Len], op.Off)
			if err := backend.WriteFull(cow, b[:op.Len], op.Off); err != nil {
				return fmt.Errorf("node %d: write %d+%d: %w", n.id, op.Off, op.Len, err)
			}
		case boot.Flush:
			// CoW flush hits the node's local write-back cache.
		}
	}

	if cache != nil {
		n.cacheUsed = cache.UsedBytes()
		n.cacheFills = cache.Stats().CacheFillOps.Load()
		n.cacheHits = cache.Stats().LocalBytes.Load()

		if n.p.Mode == ModeColdCache && n.p.Placement == PlaceStorageMem && n.isCreator() {
			// Ship the fresh cache to the storage node's memory;
			// "we have added the time of cache transfers to the
			// booting time" (§5.3.2).
			if err := cache.Sync(); err != nil {
				return err
			}
			n.storage.receiveCacheTransfer(proc, n.cacheUsed)
		}
		if err := cache.Close(); err != nil {
			return err
		}
	}
	return cow.Close()
}

// fillGuestPattern deterministically fills guest-write payloads.
func fillGuestPattern(p []byte, off int64) {
	for i := range p {
		p[i] = byte((off+int64(i))*167 + 13)
	}
}
