package rblock

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vmicache/internal/backend"
)

// TestPipelinedConcurrentRequests issues many reads from many goroutines
// over ONE client connection and checks every byte. With a single-outstanding
// client this would serialise; the pipelined client keeps them all in flight.
func TestPipelinedConcurrentRequests(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	f, err := store.Create("disk.img")
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(seed)
	if err := backend.WriteFull(f, seed, 0); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	rf, err := c.Open("disk.img", true)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seedN int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seedN))
			buf := make([]byte, 32<<10)
			for i := 0; i < 25; i++ {
				n := 1 + rnd.Intn(len(buf))
				off := rnd.Int63n(int64(len(seed) - n))
				if err := backend.ReadFull(rf, buf[:n], off); err != nil {
					t.Errorf("read off=%d n=%d: %v", off, n, err)
					return
				}
				if !bytes.Equal(buf[:n], seed[off:off+int64(n)]) {
					t.Errorf("data mismatch off=%d n=%d", off, n)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestClientBrokenFailsFast kills the server mid-conversation and checks
// that the client surfaces ErrClientBroken (not a hang, not stream
// corruption) on the in-flight request and fails fast on all later calls.
func TestClientBrokenFailsFast(t *testing.T) {
	store, addr, srv := newServer(t, ServerOpts{})
	f, err := store.Create("disk.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteFull(f, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	rf, err := c.Open("disk.img", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := backend.ReadFull(rf, buf, 0); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-flight (or next) request observes the dead connection.
	var firstErr error
	for i := 0; i < 3; i++ {
		if _, firstErr = rf.ReadAt(buf, 0); firstErr != nil {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("reads kept succeeding after server close")
	}
	// Every subsequent call fails fast with the typed error.
	start := time.Now()
	_, err = rf.ReadAt(buf, 0)
	if !errors.Is(err, ErrClientBroken) {
		t.Fatalf("post-break read error = %v, want ErrClientBroken", err)
	}
	if _, err := c.Open("disk.img", true); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("post-break open error = %v, want ErrClientBroken", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestClientTimeoutBreaksClient connects to a listener that accepts and then
// never responds; the request must time out and break the client.
func TestClientTimeoutBreaksClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Swallow the request and go silent.
		io := make([]byte, 1024)
		conn.Read(io) //nolint:errcheck
	}()

	c, err := Dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	c.SetTimeout(100 * time.Millisecond)

	start := time.Now()
	_, err = c.Open("anything", true)
	if err == nil {
		t.Fatal("open against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if _, err := c.Open("anything", true); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("post-timeout error = %v, want ErrClientBroken", err)
	}
}

// TestTornReplyBreaksClient: a server that dies part-way through a reply's
// payload fails the request it was answering at once — the waiter whose
// header had arrived is released like every other — instead of leaving it
// blocked with no deadline left to fire.
func TestTornReplyBreaksClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() //nolint:errcheck
		req, err := readFrame(conn, nil, make([]byte, frameHeaderLen))
		if err != nil {
			return
		}
		reply := &frame{op: req.op | replyFlag, id: req.id, payload: make([]byte, 4096)}
		hdr := make([]byte, frameHeaderLen)
		encodeFrameHeader(hdr, reply)
		conn.Write(append(hdr, reply.payload[:100]...)) //nolint:errcheck // then die
	}()
	c, err := Dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	c.SetTimeout(0) // no deadline: only the torn reply can end the wait
	done := make(chan error, 1)
	go func() { _, err := c.Open("disk.img", true); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientBroken) {
			t.Fatalf("open answered by a torn reply: %v, want ErrClientBroken", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the request answered by a torn reply never returned")
	}
}

// TestOutOfOrderCompletion checks that responses demultiplex by id: a slow
// large read issued first does not block a small read issued second.
func TestOutOfOrderCompletion(t *testing.T) {
	store, addr, _ := newServer(t, ServerOpts{})
	f, err := store.Create("disk.img")
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 2<<20)
	rand.New(rand.NewSource(9)).Read(seed)
	if err := backend.WriteFull(f, seed, 0); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	rf, err := c.Open("disk.img", true)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		big := make([]byte, 2<<20)
		if err := backend.ReadFull(rf, big, 0); err != nil {
			t.Errorf("big read: %v", err)
			return
		}
		if !bytes.Equal(big, seed) {
			t.Error("big read mismatch")
		}
	}()
	go func() {
		defer wg.Done()
		small := make([]byte, 512)
		if err := backend.ReadFull(rf, small, 4096); err != nil {
			t.Errorf("small read: %v", err)
			return
		}
		if !bytes.Equal(small, seed[4096:4608]) {
			t.Error("small read mismatch")
		}
	}()
	wg.Wait()
}
