// Command nbdserve exports VM image chains as NBD block devices, the
// hypervisor attach path: a qemu or Linux kernel NBD client can boot from
// the exported chain.
//
// Usage:
//
//	nbdserve [-addr HOST:PORT] [-C dir] [-ro] [-metrics-addr HOST:PORT]
//	         IMAGE [IMAGE...]
//
// Each IMAGE (a chain top inside -C) is exported under its own name. With
// -ro, reads of raw warm clusters are served by sendfile(2) from the
// container file (on Linux; elsewhere they are copied).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/core"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/zerocopy"
)

// chainDevice adapts a core.Chain to nbd.Device. It also forwards extent
// export so read-only chains over raw warm clusters serve reads via
// sendfile.
type chainDevice struct{ c *core.Chain }

func (d chainDevice) ReadAt(p []byte, off int64) (int, error)  { return d.c.ReadAt(p, off) }
func (d chainDevice) WriteAt(p []byte, off int64) (int, error) { return d.c.WriteAt(p, off) }
func (d chainDevice) Size() int64                              { return d.c.Size() }
func (d chainDevice) Sync() error                              { return d.c.Sync() }

func (d chainDevice) PlainExtents(off, n int64, dst []zerocopy.FileExtent) ([]zerocopy.FileExtent, bool) {
	return d.c.PlainExtents(off, n, dst)
}

func main() {
	fs := flag.NewFlagSet("nbdserve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:10810", "listen address")
	dir := fs.String("C", ".", "working directory holding the images")
	ro := fs.Bool("ro", false, "export read-only")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	metricsAddr := fs.String("metrics-addr", "", "observability address (/metrics, /metrics.json, /debug/pprof); empty disables")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "nbdserve: need at least one image name")
		os.Exit(2)
	}

	st, err := backend.NewDirStore(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbdserve: %v\n", err)
		os.Exit(1)
	}
	ns := core.NewNamespace("dir", st)
	srv := nbd.NewServer(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		srv.RegisterMetrics(reg, nil)
		msrv, err := metrics.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbdserve: -metrics-addr %s: %v\n", *metricsAddr, err)
			os.Exit(1)
		}
		defer msrv.Close() //nolint:errcheck // terminating anyway
		fmt.Printf("nbdserve: metrics on http://%s/metrics\n", msrv.Addr())
	}

	var chains []*core.Chain
	for _, name := range fs.Args() {
		c, err := core.OpenChain(ns, core.Locator{Store: "dir", Name: name},
			core.ChainOpts{TopReadOnly: *ro})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nbdserve: opening %s: %v\n", name, err)
			os.Exit(1)
		}
		chains = append(chains, c)
		srv.AddExport(nbd.Export{Name: name, Device: chainDevice{c}, ReadOnly: *ro})
		if reg != nil {
			for depth, img := range c.Images {
				img.RegisterMetrics(reg, metrics.Labels{
					"export": name,
					"depth":  fmt.Sprintf("%d", depth),
				})
			}
		}
		fmt.Printf("nbdserve: export %q (%d bytes, chain depth %d, ro=%v)\n",
			name, c.Size(), len(c.Images), *ro)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbdserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("nbdserve: listening on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("nbdserve: %v: draining (up to %v)\n", s, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "nbdserve: shutdown: %v\n", err)
	}
	for _, c := range chains {
		c.Close() //nolint:errcheck // terminating anyway
	}
	fmt.Printf("nbdserve: served %d reads, %d writes, %d flushes\n",
		srv.ReadOps.Load(), srv.WriteOps.Load(), srv.FlushOps.Load())
}
