package qcow

import "sync"

// bufPool recycles data-path scratch buffers through a sync.Pool so steady-
// state reads and copy-on-read fills stop allocating one slice per call.
// Buffers are stored by pointer (the sync.Pool idiom that keeps the slice
// header off the heap on Put) and handed out by requested length; a pooled
// buffer whose capacity is too small is simply dropped for the GC.
//
// Images of one cluster size share a pool of cluster-sized metadata/CoW
// scratch (clusterBufs); every image shares spanBufs for variable-length
// fill spans and plan windows, so a fresh warm image reuses the last one's
// multi-MiB window buffers instead of allocating and zeroing its own. Table
// reads decode through tableBufs.
type bufPool struct {
	p sync.Pool
}

var (
	clusterBufs [MaxClusterBits + 1]bufPool
	spanBufs    bufPool
	tableBufs   bufPool
)

// get returns a buffer of length n with arbitrary contents.
func (bp *bufPool) get(n int) []byte {
	if v := bp.p.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// getZero returns a zeroed buffer of length n.
func (bp *bufPool) getZero(n int) []byte {
	b := bp.get(n)
	clear(b)
	return b
}

// put recycles a buffer obtained from get.
func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp.p.Put(&b)
}
