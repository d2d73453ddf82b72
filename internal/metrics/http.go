package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"
)

// Contention sampling rates a windowed /debug/pprof/mutex or /block request
// turns on: one in mutexFraction contended mutex events, and one blocking
// event per blockRateNs nanoseconds spent blocked.
const (
	mutexFraction = 10
	blockRateNs   = 10_000
)

// The runtime's contention profilers, off unless a window is open. The
// sampling rates are process-wide, so every Handler shares one window count
// per profiler.
var (
	mutexProfile = &windowedProfile{name: "mutex", set: func(r int) { runtime.SetMutexProfileFraction(r) }, rate: mutexFraction}
	blockProfile = &windowedProfile{name: "block", set: runtime.SetBlockProfileRate, rate: blockRateNs}
)

// windowedProfile serves a contention profile that samples only while asked
// to: a request with seconds=N turns the profiler on at its fixed rate for
// the window and gets the window's delta profile, and sampling goes back off
// when the last overlapping window ends. No hot path pays for sampling
// outside a window; a request without seconds serves what earlier windows
// recorded.
type windowedProfile struct {
	name string
	set  func(rate int)
	rate int

	mu   sync.Mutex
	open int // windows in progress
}

func (p *windowedProfile) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.FormValue("seconds") != "" {
		p.mu.Lock()
		if p.open++; p.open == 1 {
			p.set(p.rate)
		}
		p.mu.Unlock()
		defer func() {
			p.mu.Lock()
			if p.open--; p.open == 0 {
				p.set(0)
			}
			p.mu.Unlock()
		}()
	}
	pprof.Handler(p.name).ServeHTTP(w, r)
}

// Handler returns the observability mux a daemon mounts on its
// -metrics-addr: the two exposition formats plus the standard pprof
// endpoints (heap, goroutine, CPU profile, execution trace, and the mutex
// and block profiles over a seconds=N window), so a live vmicached or
// rblockd can be profiled without redeploying.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client went away; nothing to do
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w) //nolint:errcheck // client went away; nothing to do
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/pprof/mutex", mutexProfile)
	mux.Handle("/debug/pprof/block", blockProfile)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// ListenAndServe binds addr and serves Handler(r) in the background;
// ":0"-style addresses pick an ephemeral port. Close the returned server to
// stop it.
func ListenAndServe(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler: Handler(r),
		// Scrapes are small; generous-but-bounded timeouts keep a stuck
		// client from pinning a connection forever. No WriteTimeout: CPU
		// profiles legitimately stream for tens of seconds.
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return &Server{srv: srv, ln: ln}, nil
}

// Addr reports the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
