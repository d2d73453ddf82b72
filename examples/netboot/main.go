// Netboot: the real-network deployment path, end to end, in one process.
//
//  1. A storage node exports a base image over the remote block protocol
//     (the NFS stand-in), read-only.
//  2. A compute node dials it, stacks cache + CoW images locally, and
//     exports the chain as an NBD block device (the hypervisor attach
//     surface of §4.2).
//  3. A "hypervisor" attaches to the NBD export and boots a guest by
//     replaying a boot workload — twice, to show the warm cache removing
//     the wire traffic.
//
// Everything travels over real TCP sockets on localhost.
//
// Run with: go run ./examples/netboot
package main

import (
	"fmt"
	"log"

	vmicache "vmicache"
	"vmicache/internal/backend"
	"vmicache/internal/nbd"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

func main() {
	const imageSize = 128 << 20

	// --- storage node ---
	storageStore := vmicache.NewMemStore()
	ns := vmicache.NewNamespace("storage", storageStore)
	content := vmicache.PatternSource{Seed: 7, N: imageSize}
	if err := vmicache.CreateBase(ns, vmicache.Loc("storage:base.img"), imageSize, 0, content); err != nil {
		log.Fatal(err)
	}
	storageSrv := vmicache.NewRBlockServer(storageStore, rblock.ServerOpts{})
	storageAddr, err := storageSrv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer storageSrv.Close() //nolint:errcheck
	fmt.Printf("storage node: exporting base.img on %s (read-only)\n", storageAddr)

	// --- compute node: remote base + local cache + local CoW ---
	client, err := vmicache.DialRBlock(storageAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close() //nolint:errcheck
	remoteBaseFile, err := client.Open("base.img", true)
	if err != nil {
		log.Fatal(err)
	}
	remoteBase, err := qcow.Open(remoteBaseFile, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		log.Fatal(err)
	}

	cache, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: imageSize, ClusterBits: vmicache.CacheClusterBits,
		BackingFile: "base.img", CacheQuota: 32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	cache.SetBacking(remoteBase)
	cow, err := qcow.Create(backend.NewMemFile(), qcow.CreateOpts{
		Size: imageSize, BackingFile: "cache",
	})
	if err != nil {
		log.Fatal(err)
	}
	cow.SetBacking(cache)

	nbdSrv := vmicache.NewNBDServer(nil)
	nbdSrv.AddExport(nbd.Export{Name: "vm0", Device: chainDevice{cow}})
	nbdAddr, err := nbdSrv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer nbdSrv.Close() //nolint:errcheck
	fmt.Printf("compute node: chain base.img <- cache(512B, 32MiB quota) <- CoW, NBD on %s\n\n", nbdAddr)

	// --- hypervisor: attach and boot ---
	prof := vmicache.Debian.Scale(0.2)
	prof.ImageSize = imageSize
	bootOnce := func(tag string) {
		dev, err := vmicache.DialNBD(nbdAddr, "vm0")
		if err != nil {
			log.Fatal(err)
		}
		defer dev.Close() //nolint:errcheck
		before := storageSrv.Stats().BytesRead
		w := vmicache.GenerateBoot(prof)
		res, err := vmicache.ReplayBoot(w, dev, vmicache.ReplayOpts{})
		if err != nil {
			log.Fatal(err)
		}
		wire := storageSrv.Stats().BytesRead - before
		fmt.Printf("%s: read %.1f MB, wrote %.1f MB through NBD in %v; %.1f MB crossed the storage wire\n",
			tag, float64(res.ReadBytes)/1e6, float64(res.WriteBytes)/1e6,
			res.Elapsed.Round(1e6), float64(wire)/1e6)
	}

	bootOnce("boot 1 (cold cache)")
	bootOnce("boot 2 (warm cache)")

	fmt.Printf("\ncache image: %.1f MB used, %d fills, full=%v\n",
		float64(cache.UsedBytes())/1e6, cache.Stats().CacheFillOps.Load(), cache.CacheFull())
	fmt.Println("the second boot's wire traffic collapses: the cache serves the working set locally.")
}

// chainDevice adapts a qcow image to nbd.Device.
type chainDevice struct{ img *qcow.Image }

func (d chainDevice) ReadAt(p []byte, off int64) (int, error)  { return d.img.ReadAt(p, off) }
func (d chainDevice) WriteAt(p []byte, off int64) (int, error) { return d.img.WriteAt(p, off) }
func (d chainDevice) Size() int64                              { return d.img.Size() }
func (d chainDevice) Sync() error                              { return d.img.Sync() }
