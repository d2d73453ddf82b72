package nbd

import (
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
)

// BenchmarkNBDReplay is the microbenchmark behind bench/e2e's nbd_boot: the
// profile that workload replays (CentOS ×0.1: 391 reads / 9.0 MB, 31 writes,
// 3 flushes, one request in flight) against an in-memory device, directly
// and through loopback NBD. nbd − direct is what the hop costs per boot.
func BenchmarkNBDReplay(b *testing.B) {
	prof := boot.CentOS.Scale(0.1)
	w := boot.Generate(prof)
	dev := memDevice{backend.NewMemFileSize(prof.ImageSize), prof.ImageSize}

	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	srv.AddExport(Export{Name: "vm", Device: dev})
	c, err := Dial(addr, "vm")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	moved := w.TotalReadBytes()
	for _, op := range w.Ops {
		if op.Kind == boot.Write {
			moved += op.Len
		}
	}
	for _, bc := range []struct {
		name string
		dev  boot.Device
	}{{"direct", dev}, {"nbd", c}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(moved)
			for i := 0; i < b.N; i++ {
				if _, err := boot.Replay(w, bc.dev, boot.ReplayOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
