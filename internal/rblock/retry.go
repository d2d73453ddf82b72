package rblock

import (
	"time"
)

// Backoff generates a capped exponential delay schedule for connection
// retries: attempt 0 waits Base, each further attempt doubles, and no delay
// exceeds Max. The zero value means "no waiting" (every Delay is 0), which
// degrades DialRetry to an immediate-retry loop — useful in tests.
type Backoff struct {
	// Base is the first retry delay (attempt 0).
	Base time.Duration
	// Max caps the delay; 0 means uncapped.
	Max time.Duration
}

// DefaultBackoff is the schedule used by cache-manager peer dials and the
// swarm fetcher: 50ms, 100ms, 200ms, ... capped at 2s.
var DefaultBackoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// Delay reports how long to wait before retry number attempt (0-based).
// Negative attempts wait Base.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			return b.Max
		}
		if d < 0 { // overflow far past any sane cap
			if b.Max > 0 {
				return b.Max
			}
			return 1<<63 - 1
		}
	}
	if b.Max > 0 && d > b.Max {
		return b.Max
	}
	return d
}

// DialRetry dials addr up to attempts times (at least once), sleeping
// b.Delay(i) between tries, and returns the first successful client or the
// last dial error. sleep, when non-nil, replaces time.Sleep so tests can
// observe the schedule without waiting; pass nil for real sleeping.
func DialRetry(addr string, attempts int, b Backoff, sleep func(time.Duration)) (*Client, error) {
	if attempts < 1 {
		attempts = 1
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if d := b.Delay(i - 1); d > 0 {
				sleep(d)
			}
		}
		c, err := Dial(addr, 0)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
