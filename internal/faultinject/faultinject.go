// Package faultinject is a deterministic, seeded fault-injection registry
// for failure testing. Production code carries nil-checked hook points (in
// the style of internal/obs: a nil *Injector turns every call into a single
// predictable branch); tests — and operators chasing a reproduction — attach
// an Injector whose rules decide, purely as a function of (seed, site,
// occurrence number), when a hook fires.
//
// Three fault shapes cover the failure model of the enumeration stack:
//
//   - MaybePanic: throw a Panic at a hook point (worker-crash simulation;
//     every host of the search fails the run with it, as with any panic in
//     a task: the only retry is a resume);
//   - Err: return a typed *Error from an I/O site (torn spool and checkpoint
//     writes; internal/service retries these with capped backoff);
//   - Stall: sleep the rule's Delay (slow-consumer backpressure).
//
// Determinism: every hook call atomically assigns the site's next occurrence
// number n (1-based, process-ordered), and whether occurrence n fires is a
// pure function of the seed and the rule. Under concurrency the goroutine
// that observes a given n may vary run to run, but the *set* of firing
// occurrence numbers never does — which is what makes a failure test
// replayable by seed.
package faultinject

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names a hook point in the enumeration stack.
type Site uint8

// Hook sites.
const (
	// TaskExec fires when a search.Worker begins a task (a serial run's
	// whole split, a pool's share, stolen task or resumed one), before its
	// path replay — on every host, so the Nth task panics at any thread
	// count, and the run fails.
	TaskExec Site = iota
	// EngineStep fires before each engine step of a search.Worker's task,
	// on every host: the Nth step panics mid-task, and the run fails.
	EngineStep
	// CheckpointWrite fires when a checkpoint is about to be persisted.
	CheckpointWrite
	// SpoolWrite fires when a tree-spool line is about to be written.
	SpoolWrite
	// JournalWrite fires when a job-journal record is about to be appended.
	JournalWrite
	// TreeStream fires when a stand tree is about to be delivered to the
	// consumer (stall site: simulates a slow subscriber).
	TreeStream
	// RPCSend fires when a fleet RPC (dispatch, result upload) is about to
	// leave the caller — an Err here models the request never reaching the
	// peer, a Stall models a slow network.
	RPCSend
	// RPCRecv fires when a fleet RPC response is about to be returned to
	// the caller — an Err here models a reply lost after the peer already
	// acted, the half that makes exactly-once merging interesting.
	RPCRecv
	// Heartbeat fires when a worker is about to send a shard heartbeat;
	// dropping a run of these is how tests force lease expiry and
	// re-dispatch without killing the worker.
	Heartbeat

	numSites
)

var siteNames = [numSites]string{
	TaskExec:        "taskexec",
	EngineStep:      "enginestep",
	CheckpointWrite: "ckptwrite",
	SpoolWrite:      "spoolwrite",
	JournalWrite:    "journalwrite",
	TreeStream:      "treestream",
	RPCSend:         "rpcsend",
	RPCRecv:         "rpcrecv",
	Heartbeat:       "heartbeat",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Rule decides which occurrences of a site fire. The clauses are OR-ed: an
// occurrence fires if any matches (subject to Limit).
type Rule struct {
	// Every fires occurrence n when n % Every == 0 (occurrences are
	// 1-based: Every=50 fires the 50th, 100th, ... call). Zero disables.
	Every int64
	// Nth fires exactly the listed occurrence numbers.
	Nth []int64
	// Prob fires each occurrence with this probability, decided by a hash
	// of (seed, site, n) — deterministic for a fixed seed.
	Prob float64
	// Limit stops the site after this many fires (0 = unbounded). Under
	// concurrency the *count* of fires is exact but which of several
	// simultaneously-deciding occurrences lands the last slot may vary.
	Limit int64
	// Delay is how long Stall sleeps when the site fires (Err and
	// MaybePanic ignore it).
	Delay time.Duration
}

func (r Rule) enabled() bool {
	return r.Every > 0 || len(r.Nth) > 0 || r.Prob > 0
}

// matches reports whether occurrence n fires under r with the given seed.
func (r Rule) matches(seed int64, site Site, n int64) bool {
	if r.Every > 0 && n%r.Every == 0 {
		return true
	}
	for _, k := range r.Nth {
		if n == k {
			return true
		}
	}
	if r.Prob > 0 && unit(seed, site, n) < r.Prob {
		return true
	}
	return false
}

// unit maps (seed, site, n) to a uniform value in [0, 1) via splitmix64.
func unit(seed int64, site Site, n int64) float64 {
	x := uint64(seed) ^ (uint64(site)+1)<<56 ^ uint64(n)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Injector is a seeded fault plan over the hook sites. The zero value (and
// a nil *Injector) never fires; construct with New and attach rules with
// Set. Hook methods are safe for concurrent use.
type Injector struct {
	seed  int64
	rules [numSites]Rule
	count [numSites]atomic.Int64
	fired [numSites]atomic.Int64
}

// New returns an injector with no rules; every site is quiescent until Set.
func New(seed int64) *Injector { return &Injector{seed: seed} }

// Set installs the rule for one site, returning the injector for chaining.
// Not safe concurrently with hook calls; configure before the run starts.
func (in *Injector) Set(site Site, r Rule) *Injector {
	in.rules[site] = r
	return in
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Fire assigns the site's next occurrence number and reports whether it
// fires. Safe on a nil receiver (never fires, occurrence numbers are not
// consumed — a nil injector is free).
func (in *Injector) Fire(site Site) (n int64, fire bool) {
	if in == nil {
		return 0, false
	}
	r := in.rules[site]
	if !r.enabled() {
		return 0, false
	}
	n = in.count[site].Add(1)
	if !r.matches(in.seed, site, n) {
		return n, false
	}
	if r.Limit > 0 && in.fired[site].Add(1) > r.Limit {
		return n, false
	}
	if r.Limit <= 0 {
		in.fired[site].Add(1)
	}
	return n, true
}

// Count returns how many occurrences the site has seen (0 on nil).
func (in *Injector) Count(site Site) int64 {
	if in == nil {
		return 0
	}
	return in.count[site].Load()
}

// Fired returns how many occurrences of the site fired (0 on nil). With a
// Limit set this can momentarily over-read by racing deciders; the number
// of faults actually delivered never exceeds the limit.
func (in *Injector) Fired(site Site) int64 {
	if in == nil {
		return 0
	}
	n := in.fired[site].Load()
	if l := in.rules[site].Limit; l > 0 && n > l {
		return l
	}
	return n
}

// Panic is the value MaybePanic throws, so recovery layers can tell an
// injected crash from a real bug in logs and error chains.
type Panic struct {
	Site Site
	N    int64
}

func (p Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s occurrence %d", p.Site, p.N)
}

// Error is the typed error Err returns from I/O sites.
type Error struct {
	Site Site
	N    int64
	Op   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s error at %s occurrence %d", e.Op, e.Site, e.N)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var ie *Error
	return asError(err, &ie)
}

// asError is errors.As without the reflection-heavy general case.
func asError(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// MaybePanic panics with a Panic value when the site fires. Nil-safe.
func (in *Injector) MaybePanic(site Site) {
	if n, fire := in.Fire(site); fire {
		panic(Panic{Site: site, N: n})
	}
}

// Err returns an injected *Error when the site fires, nil otherwise. Op
// labels the failed operation ("write", "sync", ...). Nil-safe.
func (in *Injector) Err(site Site, op string) error {
	if n, fire := in.Fire(site); fire {
		return &Error{Site: site, N: n, Op: op}
	}
	return nil
}

// Stall sleeps the site rule's Delay when the site fires. Nil-safe.
func (in *Injector) Stall(site Site) {
	if _, fire := in.Fire(site); fire {
		if d := in.rules[site].Delay; d > 0 {
			time.Sleep(d)
		}
	}
}

// StallEach is Stall at n occurrences in a row: a block of n items passing
// a site that fires per item. Nil-safe, and free on a nil injector.
func (in *Injector) StallEach(site Site, n int) {
	for i := 0; i < n && in != nil; i++ {
		in.Stall(site)
	}
}

// Parse builds an injector from a compact spec, the form the GENTRIUS_FAULTS
// environment variable uses:
//
//	seed=42;taskexec.every=50;spoolwrite.nth=3,7;ckptwrite.prob=0.1;treestream.delay=10ms;spoolwrite.limit=2
//
// Clauses are ';'-separated `site.key=value` pairs (keys: every, nth, prob,
// limit, delay) plus an optional leading `seed=N`. An empty spec yields a
// nil injector (no faults).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(0)
	any := false
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", val)
			}
			in.seed = s
			continue
		}
		siteName, field, ok := strings.Cut(key, ".")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q wants site.field=value", clause)
		}
		site, err := siteByName(siteName)
		if err != nil {
			return nil, err
		}
		r := in.rules[site]
		switch field {
		case "every":
			r.Every, err = strconv.ParseInt(val, 10, 64)
		case "limit":
			r.Limit, err = strconv.ParseInt(val, 10, 64)
		case "prob":
			r.Prob, err = strconv.ParseFloat(val, 64)
			if err == nil && (r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob)) {
				err = fmt.Errorf("out of range")
			}
		case "delay":
			r.Delay, err = time.ParseDuration(val)
		case "nth":
			r.Nth = r.Nth[:0]
			for _, part := range strings.Split(val, ",") {
				var k int64
				if k, err = strconv.ParseInt(strings.TrimSpace(part), 10, 64); err != nil {
					break
				}
				r.Nth = append(r.Nth, k)
			}
			sort.Slice(r.Nth, func(i, j int) bool { return r.Nth[i] < r.Nth[j] })
		default:
			return nil, fmt.Errorf("faultinject: unknown field %q in %q", field, clause)
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad value in %q: %v", clause, err)
		}
		in.rules[site] = r
		any = true
	}
	if !any {
		return nil, nil
	}
	return in, nil
}

// EnvVar is the environment variable FromEnv reads the fault spec from.
const EnvVar = "GENTRIUS_FAULTS"

// FromEnv builds an injector from the GENTRIUS_FAULTS environment variable
// (nil injector when unset or empty).
func FromEnv() (*Injector, error) { return Parse(os.Getenv(EnvVar)) }

func siteByName(name string) (Site, error) {
	for s, n := range siteNames {
		if n == name {
			return Site(s), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown site %q (known: %s)",
		name, strings.Join(siteNames[:], ", "))
}
