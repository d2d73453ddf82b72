package swarm

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// DefaultTrackerTTL is how long an announce keeps a peer listed.
const DefaultTrackerTTL = 15 * time.Second

// PeerInfo is one tracker entry: a peer's rblock export address and how many
// chunks of the image it advertised at its last announce (a map summary, not
// the map itself — fetchers pull the full bitmap from the peer directly).
type PeerInfo struct {
	Addr   string `json:"addr"`
	Chunks int64  `json:"chunks"`
}

// Tracker is the announce registry: peers warming or serving an image
// announce (image key, own address, chunk count) and receive the live peer
// list back. Liveness is TTL-based — an entry not refreshed within the TTL
// drops out on the next sweep. The struct is usable in-process (cluster
// experiments) and over HTTP via Handler (vmicached hosts it next to the
// metrics endpoint).
type Tracker struct {
	mu     sync.Mutex
	ttl    time.Duration
	now    func() time.Time
	images map[string]map[string]trackerEntry // key → addr → entry
}

type trackerEntry struct {
	deadline time.Time
	chunks   int64
}

// NewTracker returns a tracker with the given TTL (0 = DefaultTrackerTTL).
// now is the clock (nil = time.Now).
func NewTracker(ttl time.Duration, now func() time.Time) *Tracker {
	if ttl <= 0 {
		ttl = DefaultTrackerTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Tracker{ttl: ttl, now: now, images: make(map[string]map[string]trackerEntry)}
}

// Announce registers (or refreshes) addr as a peer for key advertising
// chunks valid chunks, and returns the current live peer list, including the
// announcer itself — callers feed the list straight into Scheduler.SetMembers
// so every node's rendezvous view converges on the same set.
func (t *Tracker) Announce(key, addr string, chunks int64) []PeerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	peers := t.images[key]
	if peers == nil {
		peers = make(map[string]trackerEntry)
		t.images[key] = peers
	}
	peers[addr] = trackerEntry{deadline: now.Add(t.ttl), chunks: chunks}
	out := make([]PeerInfo, 0, len(peers))
	for a, e := range peers {
		if e.deadline.Before(now) {
			delete(peers, a)
			continue
		}
		out = append(out, PeerInfo{Addr: a, Chunks: e.chunks})
	}
	return out
}

// Peers returns the live peer list for key without announcing.
func (t *Tracker) Peers(key string) []PeerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := []PeerInfo{}
	for a, e := range t.images[key] {
		if e.deadline.Before(now) {
			delete(t.images[key], a)
			continue
		}
		out = append(out, PeerInfo{Addr: a, Chunks: e.chunks})
	}
	return out
}

// Handler exposes the tracker over HTTP:
//
//	GET /announce?key=K&addr=A&chunks=N → {"peers":[{"addr":...,"chunks":...}]}
//	GET /peers?key=K                    → same shape, no registration
func (t *Tracker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		key, addr := q.Get("key"), q.Get("addr")
		if key == "" || addr == "" {
			http.Error(w, "key and addr required", http.StatusBadRequest)
			return
		}
		chunks, _ := strconv.ParseInt(q.Get("chunks"), 10, 64)
		writePeers(w, t.Announce(key, addr, chunks))
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "key required", http.StatusBadRequest)
			return
		}
		writePeers(w, t.Peers(key))
	})
	return mux
}

func writePeers(w http.ResponseWriter, peers []PeerInfo) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // best-effort reply
		Peers []PeerInfo `json:"peers"`
	}{peers})
}

// TrackerClient talks to a remote tracker over HTTP.
type TrackerClient struct {
	// Base is the tracker's base URL, e.g. "http://10.0.0.1:9091".
	Base string
	// HTTP, when non-nil, overrides http.DefaultClient.
	HTTP *http.Client
}

// Announce registers with the remote tracker and returns the live peer list.
func (c *TrackerClient) Announce(key, addr string, chunks int64) ([]PeerInfo, error) {
	u := fmt.Sprintf("%s/announce?key=%s&addr=%s&chunks=%d",
		c.Base, url.QueryEscape(key), url.QueryEscape(addr), chunks)
	return c.get(u)
}

func (c *TrackerClient) get(u string) ([]PeerInfo, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("swarm: tracker %s: %s: %s", u, resp.Status, b)
	}
	var out struct {
		Peers []PeerInfo `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("swarm: tracker response: %w", err)
	}
	return out.Peers, nil
}

// Announcer abstracts the tracker for the session: the HTTP client and the
// in-process Tracker both satisfy it (the latter via LocalAnnouncer).
type Announcer interface {
	Announce(key, addr string, chunks int64) ([]PeerInfo, error)
}

// LocalAnnouncer adapts an in-process Tracker to the Announcer interface —
// cluster experiments share one tracker struct without HTTP overhead.
type LocalAnnouncer struct{ T *Tracker }

// Announce implements Announcer.
func (l LocalAnnouncer) Announce(key, addr string, chunks int64) ([]PeerInfo, error) {
	return l.T.Announce(key, addr, chunks), nil
}

var _ Announcer = (*TrackerClient)(nil)
var _ Announcer = LocalAnnouncer{}
