package rblock

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// refReadV is the reference OpReadV decoder: it splits the payload into
// records and sums their lengths in arbitrary precision, so no total can
// wrap. It returns the records, or ok=false for a payload the protocol
// calls malformed.
func refReadV(p []byte) (recs [][2]uint64, ok bool) {
	if len(p) == 0 || len(p)%12 != 0 {
		return nil, false
	}
	sum := new(big.Int)
	for r := p; len(r) > 0; r = r[12:] {
		off, n := binary.BigEndian.Uint64(r), uint64(binary.BigEndian.Uint32(r[8:]))
		end := new(big.Int).Add(new(big.Int).SetUint64(off), new(big.Int).SetUint64(n))
		if n == 0 || end.Cmp(big.NewInt(math.MaxInt64)) > 0 {
			return nil, false
		}
		sum.Add(sum, new(big.Int).SetUint64(n))
		recs = append(recs, [2]uint64{off, n})
	}
	if sum.Cmp(big.NewInt(maxReadV)) > 0 {
		return nil, false
	}
	return recs, true
}

// FuzzReadV feeds arbitrary OpReadV payloads to the server's validator: it
// must never panic, never accept a reply over maxReadV, and agree with the
// reference decoder on every payload and every record.
func FuzzReadV(f *testing.F) {
	rec := func(off uint64, n uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, off), n)
	}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	f.Add(rec(0, 4096))
	f.Add(cat(rec(0, 10), rec(1<<20, 100), rec(5, 1)))
	f.Add(cat(rec(0, maxReadV-1), rec(7, 1))) // exactly the cap
	f.Add(cat(rec(0, maxReadV), rec(0, 1)))   // one byte over
	f.Add(cat(rec(0, 0xffffffff), rec(0, 2))) // a u32 sum that wraps to 1
	f.Add(rec(1<<63, 1))                      // offset over MaxInt64
	f.Add(rec(math.MaxInt64-3, 4))            // range ends at MaxInt64
	f.Add(rec(math.MaxInt64-3, 5))            // range ends past it
	f.Add(cat(rec(0, 10), rec(100, 0)))       // a zero-length range
	f.Add(rec(0, 10)[:11])                    // not a whole record
	f.Add([]byte{})                           // no records
	f.Fuzz(func(t *testing.T, p []byte) {
		n, total, ok := checkReadV(p)
		want, wantOK := refReadV(p)
		if ok != wantOK {
			t.Fatalf("checkReadV ok=%v, the reference says %v", ok, wantOK)
		}
		if !ok {
			return
		}
		if total > maxReadV {
			t.Fatalf("accepted a %d-byte reply", total)
		}
		if n != len(want) {
			t.Fatalf("%d records, the reference decodes %d", n, len(want))
		}
		sum := 0
		for i := 0; i < n; i++ {
			off, l := readVRec(p, i)
			if off != want[i][0] || uint64(l) != want[i][1] {
				t.Fatalf("record %d = (%d, %d), the reference decodes %v", i, off, l, want[i])
			}
			sum += int(l)
		}
		if sum != total {
			t.Fatalf("total %d, the records sum to %d", total, sum)
		}
	})
}
