package swarm

import (
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

func peerAddrs(peers []PeerInfo) []string {
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Addr
	}
	sort.Strings(out)
	return out
}

func TestTrackerAnnounceAndTTL(t *testing.T) {
	clk := newClock()
	tr := NewTracker(10*time.Second, clk.Now)

	got := tr.Announce("img", "n1:1", 5)
	if len(got) != 1 || got[0].Addr != "n1:1" || got[0].Chunks != 5 {
		t.Fatalf("first announce = %+v", got)
	}
	clk.Advance(5 * time.Second)
	got = tr.Announce("img", "n2:1", 0)
	if addrs := peerAddrs(got); len(addrs) != 2 || addrs[0] != "n1:1" || addrs[1] != "n2:1" {
		t.Fatalf("second announce sees %v", addrs)
	}
	// n1 never refreshes: at t=11s it has expired, n2 is still live.
	clk.Advance(6 * time.Second)
	got = tr.Peers("img")
	if addrs := peerAddrs(got); len(addrs) != 1 || addrs[0] != "n2:1" {
		t.Fatalf("after TTL expiry: %v", addrs)
	}
	// Separate images do not mix.
	if p := tr.Peers("other"); len(p) != 0 {
		t.Fatalf("unknown image has peers: %v", p)
	}
}

func TestTrackerAnnounceRefreshesTTL(t *testing.T) {
	clk := newClock()
	tr := NewTracker(10*time.Second, clk.Now)
	tr.Announce("img", "n1:1", 0)
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second)
		if got := tr.Announce("img", "n1:1", int64(i)); len(got) != 1 {
			t.Fatalf("refresh %d lost the entry", i)
		}
	}
}

func TestTrackerHTTP(t *testing.T) {
	tr := NewTracker(10*time.Second, nil)
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	c := &TrackerClient{Base: srv.URL}
	peers, err := c.Announce("img.vmic", "10.0.0.1:7000", 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].Addr != "10.0.0.1:7000" || peers[0].Chunks != 12 {
		t.Fatalf("announce reply = %+v", peers)
	}
	peers, err = c.get(srv.URL + "/peers?key=img.vmic")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 {
		t.Fatalf("peers reply = %+v", peers)
	}
	// Missing parameters are rejected.
	if _, err := c.Announce("", "x", 0); err == nil {
		t.Fatal("announce without key succeeded")
	}
	if _, err := c.get(srv.URL + "/peers?key="); err == nil {
		t.Fatal("peers without key succeeded")
	}
}
