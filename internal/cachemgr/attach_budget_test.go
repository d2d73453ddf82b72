package cachemgr_test

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"vmicache/internal/backend"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/qcow"
)

// TestAttachStorageBudget pins what the storage node serves for base-image
// metadata, in exact requests and bytes, on a 1 GiB base of 64 KiB clusters
// (the bench/e2e geometry). An open reads the header with one 512 B probe,
// and a read-only open loads no refcount table; the §4.3 probe opens the
// base read-only first, and a base that is not a cache stays so:
//
//	warm attach, read-only open:     header 512 + L1 16      2 reads   528 B
//	cold warm, sizing the base:      header 512              1 read    512 B
//	cold warm, read-only open:       header 512 + L1 16      2 reads   528 B
//
// The cold warm here replays no spans, so every byte it reads is metadata,
// and it syncs nothing on the storage node: the base was never opened
// writable. The last subtest pins the probe itself at four cluster sizes.
func TestAttachStorageBudget(t *testing.T) {
	log := newOpLog()
	s := newStorageNodeOver(t, func(st backend.Store) backend.Store { return logStore{st, log} })
	const base = "base.img"
	if err := core.CreateBase(core.NewNamespace("s", s.store), core.Locator{Store: "s", Name: base},
		1<<30, 16, nil); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, s, func(cfg *cachemgr.Config) { cfg.WarmSpans = []core.Span{} })
	served := func() (reads, bytes int64) {
		st := s.srv.Stats().PerImage[base]
		return st.ReadOps, st.BytesRead
	}
	expect := func(t *testing.T, reads0, bytes0, reads, bytes int64) {
		t.Helper()
		r, b := served()
		if r-reads0 != reads || b-bytes0 != bytes {
			t.Errorf("storage node served %d reads / %d B of the base, want %d / %d",
				r-reads0, b-bytes0, reads, bytes)
		}
	}

	t.Run("cold warm", func(t *testing.T) {
		r0, b0 := served()
		lease, err := m.Acquire(base)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
		expect(t, r0, b0, 1+2, 512+(512+16))
		// Sizing, then the chain's read-only open (each open stats twice:
		// the server sizes the handle, the image asks its size); no sync.
		want := []string{"open", "stat", "stat", "read", "close", "open", "stat", "stat", "read", "read", "close"}
		if ops := kinds(log.take(base)); !slices.Equal(ops, want) {
			t.Errorf("the storage node served %v for the base during a cold warm, want %v", ops, want)
		}
	})
	t.Run("warm attach", func(t *testing.T) {
		r0, b0 := served()
		sess, err := m.Boot(base, "vm0")
		if err != nil {
			t.Fatal(err)
		}
		expect(t, r0, b0, 2, 528)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("qcow.Open header reads", openHeaderReads)
}

// openHeaderReads pins qcow.Open's header cost: one read at offset 0 of 512 B
// at every cluster size, and a second read of the whole first cluster only
// when a backing name or an extension runs past that probe.
func openHeaderReads(t *testing.T) {
	cases := []struct {
		name    string
		cb      int
		backing string
		// longExt replaces the end-of-extensions marker with an unknown
		// extension of this many bytes (the zeroed cluster ends the list
		// after it).
		longExt  uint32
		fallback bool // a second read takes the whole first cluster
	}{
		{name: "512 B clusters", cb: 9},
		{name: "4 KiB clusters", cb: 12},
		{name: "64 KiB clusters", cb: 16, backing: "base.img"},
		{name: "2 MiB clusters", cb: 21},
		{name: "backing name past the probe", cb: 16, backing: strings.Repeat("b", 500), fallback: true},
		{name: "extension past the probe", cb: 16, longExt: 400, fallback: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := backend.NewMemFile()
			img, err := qcow.Create(backend.NopClose(mem), qcow.CreateOpts{
				Size: 4 << 20, ClusterBits: tc.cb, BackingFile: tc.backing,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := img.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.longExt > 0 {
				var ext [8]byte
				binary.BigEndian.PutUint32(ext[0:], 0x7a7a7a7a) // unknown type
				binary.BigEndian.PutUint32(ext[4:], tc.longExt)
				if err := backend.WriteFull(mem, ext[:], 104); err != nil {
					t.Fatal(err)
				}
			}
			want := []int{512} // the sizes of the reads at offset 0
			if tc.fallback {
				want = append(want, 1<<tc.cb)
			}
			var got []int
			hf := backend.NewHookFile(backend.NopClose(mem))
			hf.OnRead = func(off int64, n int) {
				if off == 0 {
					got = append(got, n)
				}
			}
			re, err := qcow.Open(hf, qcow.OpenOpts{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close() //nolint:errcheck // read-only
			if h := re.Header(); h.BackingFile != tc.backing || h.ClusterBits != uint32(tc.cb) {
				t.Fatalf("decoded %+v", h)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("header reads %v, want %v", got, want)
			}
		})
	}
}
