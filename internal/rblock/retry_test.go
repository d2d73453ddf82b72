package rblock

import (
	"net"
	"testing"
	"time"

	"vmicache/internal/backend"
)

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	want := []time.Duration{
		50 * time.Millisecond,   // attempt 0
		100 * time.Millisecond,  // 1
		200 * time.Millisecond,  // 2
		400 * time.Millisecond,  // 3
		800 * time.Millisecond,  // 4
		1600 * time.Millisecond, // 5
		2 * time.Second,         // 6: capped
		2 * time.Second,         // 7: stays capped
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	if got := b.Delay(100); got != 2*time.Second {
		t.Errorf("Delay(100) = %v, want capped 2s", got)
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	for i := 0; i < 4; i++ {
		if got := b.Delay(i); got != 0 {
			t.Errorf("zero Backoff Delay(%d) = %v, want 0", i, got)
		}
	}
}

func TestBackoffUncapped(t *testing.T) {
	b := Backoff{Base: time.Millisecond}
	if got := b.Delay(10); got != 1024*time.Millisecond {
		t.Errorf("uncapped Delay(10) = %v, want 1.024s", got)
	}
	// Deep attempts must not overflow into a negative delay.
	if got := b.Delay(80); got <= 0 {
		t.Errorf("uncapped Delay(80) = %v, want positive", got)
	}
}

func TestDialRetryEventualSuccess(t *testing.T) {
	// Reserve an address nothing listens on yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	srv := NewServer(backend.NewMemStore(), ServerOpts{})
	var slept []time.Duration
	sleep := func(d time.Duration) {
		slept = append(slept, d)
		if len(slept) == 2 {
			// Bring the server up mid-schedule; the next attempt succeeds.
			if _, err := srv.Listen(addr); err != nil {
				t.Errorf("listen: %v", err)
			}
		}
	}
	defer srv.Close() //nolint:errcheck

	b := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	c, err := DialRetry(addr, 5, b, sleep)
	if err != nil {
		t.Fatalf("DialRetry: %v (slept %v)", err, slept)
	}
	defer c.Close() //nolint:errcheck
	wantSlept := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(wantSlept) {
		t.Fatalf("slept %v, want %v", slept, wantSlept)
	}
	for i, w := range wantSlept {
		if slept[i] != w {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], w)
		}
	}
}

func TestDialRetryExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	var n int
	b := Backoff{Base: time.Millisecond}
	_, err = DialRetry(addr, 3, b, func(time.Duration) { n++ })
	if err == nil {
		t.Fatal("DialRetry against dead address succeeded")
	}
	if n != 2 {
		t.Errorf("slept %d times, want 2 (attempts-1)", n)
	}
}
