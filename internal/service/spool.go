package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"gentrius/internal/faultinject"
	"gentrius/internal/retry"
)

// spool is an append-only, file-backed log of stand trees (one canonical
// Newick per line). The job's OnTrees callback appends the blocks the engine
// hands on; any number of readers stream from the beginning and then follow
// the tail until the spool is closed. Streaming a 10^6-tree stand therefore
// never holds more than one read chunk in memory, and a subscriber that
// connects late still sees every tree.
//
// Durability note: a resumed job re-finds the trees discovered between its
// last checkpoint and the crash, so an adopted spool delivers those blocks
// twice — the spool is at-least-once, while the job's counters stay exact.
// At a checkpoint's cut it is exact: every block counted has been appended.
type spool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File // write handle; nil after Close
	path   string
	size   int64 // bytes of complete lines written (file size is always == size)
	lines  int64
	closed bool
	// plain: every line was rendered by this process's engine over a universe
	// of plain labels (plainLabels), so the tree stream frames the lines
	// without reading them (appendTreeRecords). Submit marks a fresh spool so
	// when its job will run on the local engine, before anything can read it.
	// Bytes from anywhere else are read: a spool adopted at recovery holds
	// whatever the disk held, and a fleet job's lines are the bodies of its
	// peers' RPCs.
	plain bool

	fault *faultinject.Injector // nil: no injected write errors
	m     *Metrics              // never nil (zero value discards)
	retry retry.Policy          // m's policy for the "spool" site
}

func newSpool(path string, fault *faultinject.Injector, m *Metrics) (*spool, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: spool: %w", err)
	}
	s := &spool{f: f, path: path, fault: fault, m: m, retry: m.RetryPolicy("spool")}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// adoptSpool reopens an existing spool after a daemon restart. It counts
// the complete lines already on disk and truncates a torn partial final
// line (a crash mid-append: the complete lines of the torn block stay).
// With closed true the spool is adopted read-only — the historical record
// of a finished job; otherwise a write handle is reopened so a resumed job
// can continue appending.
func adoptSpool(path string, closed bool, fault *faultinject.Injector, m *Metrics) (*spool, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: spool: %w", err)
	}
	var size, lines int64
	buf := make([]byte, 64<<10)
	var off int64
	for {
		n, err := f.ReadAt(buf, off)
		for _, b := range buf[:n] {
			off++
			if b == '\n' {
				size = off
				lines++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("service: spool scan: %w", err)
		}
	}
	if size < off {
		// Torn tail from a crash mid-append: drop the partial line.
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: spool truncate: %w", err)
		}
	}
	s := &spool{path: path, size: size, lines: lines, closed: closed, fault: fault, m: m,
		retry: m.RetryPolicy("spool")}
	s.cond = sync.NewCond(&s.mu)
	if closed {
		f.Close()
	} else {
		s.f = f
	}
	return s, nil
}

// AppendBlock writes a block of n newline-terminated lines with one write
// and wakes every follower once. The block is written whole under the lock
// (via WriteAt at the logical end, so a failed partial write is simply
// overwritten on retry) and readers never observe a partial line.
// Transient write errors — including injected ones — are retried with
// capped exponential backoff; a block that still cannot be written is
// dropped and its n lines counted, never fatal: the job's final counters
// remain authoritative even on a full disk.
func (s *spool) AppendBlock(block []byte, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	// No context: a persistence path finishes its backoff even mid-shutdown.
	err := s.retry.Do(nil, func() error {
		if err := s.fault.Err(faultinject.SpoolWrite, "write"); err != nil {
			return err
		}
		_, err := s.f.WriteAt(block, s.size)
		return err
	})
	if err != nil {
		// A write that failed part-way may have left whole lines of the block
		// past the logical end, where a restart's adoptSpool would count them.
		s.f.Truncate(s.size) //nolint:errcheck // best effort on a failing disk
		s.m.SpoolDropped.Add(int64(n))
		return
	}
	s.size += int64(len(block))
	s.lines += int64(n)
	s.cond.Broadcast()
}

// Lines returns how many trees have been spooled so far.
func (s *spool) Lines() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// Close marks the spool complete (no more appends) and releases every
// blocked follower.
func (s *spool) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	s.cond.Broadcast()
}

// Stream delivers every line from the start of the spool, then follows the
// tail, blocking until more lines arrive or the spool closes. fn receives the
// lines a chunk at a time — whole lines, each newline-terminated, everything
// appended so far or as much of it as the read buffer holds — so a follower
// that has caught up is called once per appended block. It returns nil after
// delivering all lines of a closed spool, ctx.Err() on cancellation, or fn's
// error. The chunk is only valid during fn.
func (s *spool) Stream(ctx context.Context, fn func(lines []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	// cond.Wait cannot select on the context, so a watcher broadcasts when
	// the context dies; the wait loop below rechecks ctx.Err().
	stopWatch := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stopWatch()

	var off int64
	buf := make([]byte, 64<<10)
	for {
		s.mu.Lock()
		for s.size <= off && !s.closed && ctx.Err() == nil {
			s.cond.Wait()
		}
		size, closed := s.size, s.closed
		s.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		for off < size {
			n := size - off
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			m, err := f.ReadAt(buf[:n], off)
			if err != nil && err != io.EOF {
				return err
			}
			if m == 0 {
				return fmt.Errorf("service: spool truncated at %d", off)
			}
			// The spool ends on a line, so only a full buffer can cut one: the
			// cut line is read again with the next chunk, and a line longer than
			// the buffer with a larger one.
			end := bytes.LastIndexByte(buf[:m], '\n') + 1
			if end == 0 {
				buf = make([]byte, 2*len(buf))
				continue
			}
			off += int64(end)
			if err := fn(buf[:end]); err != nil {
				return err
			}
		}
		if closed && off >= size {
			return nil
		}
	}
}
