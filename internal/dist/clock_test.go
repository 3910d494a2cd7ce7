package dist

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// VirtualClock is a manually advanced clock for deterministic protocol
// tests — the role the tick engine plays for the search schedulers, but in
// time.Time/time.Duration units so lease TTLs, heartbeat cadences and retry
// backoffs run unmodified against it (it implements Clock). Time
// only moves when a test calls Advance, so "the worker missed three
// heartbeats" is a statement the test makes, not something a loaded CI
// machine decides.
//
// All methods are safe for concurrent use. Timers fire in deadline order;
// timers sharing a deadline fire in registration order.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*vtimer // in registration order between Advances
}

type vtimer struct {
	at time.Time
	ch chan time.Time
}

// NewVirtualClock returns a clock stopped at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that receives the virtual time once Advance moves
// the clock to (or past) now+d. A non-positive d fires immediately.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.until(c.now.Add(d))
}

// Until is After for an absolute deadline; one not after now fires at once.
func (c *VirtualClock) Until(t time.Time) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.until(t)
}

// until registers a timer for t, or fires it at once when the clock has
// reached t already. The caller holds c.mu.
func (c *VirtualClock) until(t time.Time) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if !t.After(c.now) {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, &vtimer{at: t, ch: ch})
	return ch
}

// Sleep blocks the caller until the clock advances past d.
func (c *VirtualClock) Sleep(d time.Duration) { <-c.After(d) }

// Waiters reports how many timers are pending. Tests use it to know a
// background goroutine has registered its timer before advancing — the
// virtual-clock analogue of "the worker is now waiting".
func (c *VirtualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// Advance moves the clock forward by d, firing every timer whose deadline
// is reached, in deadline order. Goroutines a fired timer wakes register
// their next timers only after the advance, so nested waits (a retry loop
// sleeping thrice) do not unwind within one large Advance: tests advance in
// small steps instead (see AdvanceStep idiom in internal/dist tests).
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.now.Add(d)
	// Stable: timers sharing a deadline stay in registration order.
	sort.SliceStable(c.timers, func(i, j int) bool { return c.timers[i].at.Before(c.timers[j].at) })
	for len(c.timers) > 0 && !c.timers[0].at.After(target) {
		t := c.timers[0]
		c.timers = c.timers[1:]
		if t.at.After(c.now) {
			c.now = t.at
		}
		t.ch <- c.now
	}
	c.now = target
}

func TestVirtualClockFiresInOrder(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewVirtualClock(start)
	a := c.After(30 * time.Millisecond)
	b := c.After(10 * time.Millisecond)
	imm := c.After(0)
	if got := <-imm; !got.Equal(start) {
		t.Fatalf("immediate timer fired at %v, want %v", got, start)
	}
	c.Advance(20 * time.Millisecond)
	select {
	case got := <-b:
		if want := start.Add(10 * time.Millisecond); !got.Equal(want) {
			t.Fatalf("b fired at %v, want %v", got, want)
		}
	default:
		t.Fatal("b did not fire within the advance window")
	}
	select {
	case <-a:
		t.Fatal("a fired before its deadline")
	default:
	}
	c.Advance(10 * time.Millisecond)
	if got := <-a; !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("a fired at %v", got)
	}
	if got, want := c.Now(), start.Add(30*time.Millisecond); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestVirtualClockSleepWakesGoroutine(t *testing.T) {
	c := NewVirtualClock(time.Unix(100, 0))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(50 * time.Millisecond)
	}()
	for c.Waiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	c.Advance(50 * time.Millisecond)
	wg.Wait()
}

func TestVirtualClockSameDeadlineRegistrationOrder(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	first := c.After(time.Second)
	second := c.After(time.Second)
	done := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); <-first; done <- 1 }()
	go func() { defer wg.Done(); <-second; done <- 2 }()
	c.Advance(time.Second)
	wg.Wait()
	close(done)
	// Both fired; registration order governs channel sends (receivers race,
	// so only assert both completed).
	n := 0
	for range done {
		n++
	}
	if n != 2 {
		t.Fatalf("%d timers fired, want 2", n)
	}
}
