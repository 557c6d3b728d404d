package service

import (
	"context"
	"errors"
	"sync"
)

// errShed is returned when the wait queue is full: the caller sheds the
// request with 503 + Retry-After instead of letting latency collapse.
var errShed = errors.New("service: at capacity")

// limiter is the global worker-pool admission control: at most `workers`
// cold compiles run concurrently, at most `queue` more wait for a slot, and
// anything beyond that is shed immediately. Waiting is cancellable, so a
// request whose deadline expires in the queue leaves without running.
type limiter struct {
	sem   chan struct{} // one token per running analysis
	queue chan struct{} // one token per waiting request

	mu      sync.Mutex
	waiting int // current queue occupancy, for the gauge
}

func newLimiter(workers, queue int) *limiter {
	return &limiter{
		sem:   make(chan struct{}, workers),
		queue: make(chan struct{}, queue),
	}
}

// acquire takes a worker slot, waiting in the bounded queue when the pool
// is busy. Returns errShed when the queue is full, or ctx.Err() when the
// context ends first. Every nil return must be paired with release.
func (l *limiter) acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return errShed
	}
	l.addWaiting(1)
	defer func() {
		l.addWaiting(-1)
		<-l.queue
	}()
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a worker slot taken by acquire.
func (l *limiter) release() { <-l.sem }

func (l *limiter) addWaiting(d int) {
	l.mu.Lock()
	l.waiting += d
	l.mu.Unlock()
}

// depth reports the current queue occupancy.
func (l *limiter) depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// running reports the number of compiles currently holding a worker slot.
func (l *limiter) running() int { return len(l.sem) }
