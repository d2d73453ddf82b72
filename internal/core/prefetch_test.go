package core

import "testing"

func TestDisclosureReflectsFillOrder(t *testing.T) {
	env := newTestEnv(t, 2*mb)
	base := Locator{Store: "nfs", Name: "base.img"}
	cacheLoc := Locator{Store: "disk", Name: "d.cache"}
	if err := CreateCache(env.ns, cacheLoc, base, env.size, 2*mb, 0); err != nil {
		t.Fatal(err)
	}
	c, err := OpenChain(env.ns, cacheLoc, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm in a deliberately non-monotonic virtual order.
	warmOrder := []Span{{Off: mb, Len: 64 << 10}, {Off: 0, Len: 32 << 10}, {Off: 512 << 10, Len: 16 << 10}}
	if _, err := Warm(c, warmOrder); err != nil {
		t.Fatal(err)
	}
	spans, err := Disclosure(c.CacheImage())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("empty disclosure")
	}
	// The disclosure must start where the boot started reading (1 MiB),
	// not at virtual offset 0: fill order, not virtual order.
	if spans[0].Off != mb {
		t.Fatalf("disclosure starts at %d, want %d (fill order)", spans[0].Off, mb)
	}
	var total int64
	for _, s := range spans {
		total += s.Len
	}
	want := int64(64<<10 + 32<<10 + 16<<10)
	if total != want {
		t.Fatalf("disclosure covers %d, want %d", total, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Disclosure of a non-cache image is rejected.
	cow := Locator{Store: "disk", Name: "d.cow"}
	if err := CreateCoW(env.ns, cow, base, env.size, 0); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenChain(env.ns, cow, ChainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //nolint:errcheck
	if _, err := Disclosure(c2.Top()); err == nil {
		t.Fatal("disclosure of CoW image succeeded")
	}
}
