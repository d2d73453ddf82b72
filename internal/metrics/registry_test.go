package metrics

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildRegistry constructs a registry with one of each instrument flavour and
// deterministic values, shared by the golden and round-trip tests.
func buildRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("vmicache_test_reads_total", "Reads handled.", Labels{"image": "a"})
	c.Add(41)
	c.Inc()
	g := r.Gauge("vmicache_test_inflight", "Requests in flight.", nil)
	g.Set(7)
	r.CounterFunc("vmicache_test_fills_total", "Fills performed.", nil, func() int64 { return 3 })
	h := r.Histogram("vmicache_test_latency_ns", "Request latency.", Labels{"image": "a"})
	h.Observe(1) // bucket 0: [1,2)
	h.Observe(3) // bucket 1: [2,4)
	h.Observe(3)
	h.Observe(900) // bucket 9: [512,1024)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if _, err := buildRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP vmicache_test_fills_total Fills performed.
# TYPE vmicache_test_fills_total counter
vmicache_test_fills_total 3
# HELP vmicache_test_inflight Requests in flight.
# TYPE vmicache_test_inflight gauge
vmicache_test_inflight 7
# HELP vmicache_test_latency_ns Request latency.
# TYPE vmicache_test_latency_ns histogram
vmicache_test_latency_ns_bucket{image="a",le="2"} 1
vmicache_test_latency_ns_bucket{image="a",le="4"} 3
vmicache_test_latency_ns_bucket{image="a",le="1024"} 4
vmicache_test_latency_ns_bucket{image="a",le="+Inf"} 4
vmicache_test_latency_ns_sum{image="a"} 907
vmicache_test_latency_ns_count{image="a"} 4
# HELP vmicache_test_reads_total Reads handled.
# TYPE vmicache_test_reads_total counter
vmicache_test_reads_total{image="a"} 42
`
	if got := b.String(); got != want {
		t.Errorf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := buildRegistry()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := RegistrySnapshot{Metrics: r.Gather()}
	// The unexported help field does not survive JSON; blank it for the
	// comparison.
	for i := range want.Metrics {
		want.Metrics[i].help = ""
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", snap, want)
	}
}

func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Labels{"k": "v"})
	b := r.Counter("x_total", "", Labels{"k": "v"})
	if a != b {
		t.Error("same identity returned distinct counters")
	}
	if c := r.Counter("x_total", "", Labels{"k": "w"}); c == a {
		t.Error("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "", Labels{"k": "v"})
}

// TestConcurrentObserveScrape hammers one histogram from 8 goroutines while
// scraping both exposition formats; run under -race this is the registry's
// concurrency contract test.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vmicache_test_hammer_ns", "Hammered.", nil)
	c := r.Counter("vmicache_test_hammer_total", "Hammered.", nil)
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(seed + int64(i))
				c.Inc()
			}
		}(int64(w * 1000))
	}
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if _, err := r.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if err := r.WriteJSON(&b); err != nil {
				t.Errorf("json scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-donec
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	if got := c.Load(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	s := h.Snapshot()
	var sum int64
	for _, b := range s.Buckets {
		sum += b.Count
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(buildRegistry()))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // test helper
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "vmicache_test_reads_total{image=\"a\"} 42") {
		t.Errorf("/metrics missing counter line:\n%s", body)
	}

	resp, body = get("/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics.json status = %d", resp.StatusCode)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("/metrics.json not valid JSON: %v", err)
	} else if len(snap.Metrics) != 4 {
		t.Errorf("/metrics.json has %d metrics, want 4", len(snap.Metrics))
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	resp, _ = get("/debug/pprof/goroutine?debug=1")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine status = %d", resp.StatusCode)
	}
}

// TestWindowedContentionProfiles: a seconds=1 request for the mutex or block
// profile samples only for its window. The mutex fraction reads the fixed
// rate while the window is open and 0 after it; each reply is a well-formed
// gzipped profile.proto holding its sample types (field 1) and string table
// (field 6).
func TestWindowedContentionProfiles(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	if f := runtime.SetMutexProfileFraction(-1); f != 0 {
		t.Fatalf("mutex profiling is on before any window (fraction %d)", f)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"mutex", "block"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/debug/pprof/" + name + "?seconds=1")
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer resp.Body.Close() //nolint:errcheck // test helper
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body) //nolint:errcheck // for the message only
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
				return
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Errorf("%s: not gzip: %v", name, err)
				return
			}
			raw, err := io.ReadAll(zr)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if fields, ok := protoFields(raw); !ok || !fields[1] || !fields[6] {
				t.Errorf("%s: %d B that do not parse as a profile (fields %v)", name, len(raw), fields)
			}
		}()
	}
	// Contend a mutex inside the window, and see the fraction on.
	var mu sync.Mutex
	sawOn := false
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		if runtime.SetMutexProfileFraction(-1) == mutexFraction {
			sawOn = true
		}
		mu.Lock()
		go func() { mu.Lock(); mu.Unlock() }() //nolint:staticcheck // contention on purpose
		time.Sleep(time.Millisecond)
		mu.Unlock()
	}
	wg.Wait()
	if !sawOn {
		t.Errorf("mutex fraction never read %d during the window", mutexFraction)
	}
	if f := runtime.SetMutexProfileFraction(-1); f != 0 {
		t.Errorf("mutex fraction %d after the window, want 0", f)
	}
}

// protoFields walks the top-level fields of a protobuf message: the field
// numbers it holds, and whether every field is well formed.
func protoFields(b []byte) (map[uint64]bool, bool) {
	fields := map[uint64]bool{}
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fields, false
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return fields, false
			}
			b = b[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fields, false
			}
			b = b[n+int(l):]
		default:
			return fields, false
		}
		fields[key>>3] = true
	}
	return fields, len(fields) > 0
}

func TestListenAndServe(t *testing.T) {
	r := buildRegistry()
	s, err := ListenAndServe("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test cleanup
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSnapshotHistogramConversion(t *testing.T) {
	var ah AtomicHistogram
	ah.Observe(5)
	ah.Observe(5)
	ah.Observe(100)
	h := ah.Snapshot().Histogram()
	if h.Count() != 3 {
		t.Errorf("converted count = %d, want 3", h.Count())
	}
	if got := h.Mean(); got < 36 || got > 37 {
		t.Errorf("converted mean = %g, want ~36.67", got)
	}
}
