package search

import (
	"context"
	"errors"
	"sync"
)

// ErrRunEnded is returned by CheckpointTrigger.Request when the run
// finished (or was stopped) before it could service the snapshot request.
var ErrRunEnded = errors.New("search: run ended before the checkpoint request was serviced")

// CheckpointTrigger requests an on-demand snapshot from a running
// enumeration — serial or parallel — without stopping it. The requesting
// side calls Request; the engine side polls Requests at its stopping-rule
// boundaries (serial) or services each request with a checkpoint round from
// the run's control loop (parallel). A trigger is single-run: hand each enumeration its
// own. All methods are nil-safe.
type CheckpointTrigger struct {
	req  chan chan *Checkpoint
	done chan struct{}
	once sync.Once
}

// NewCheckpointTrigger returns a trigger ready to be placed in the run's
// options and shared with the requesting side.
func NewCheckpointTrigger() *CheckpointTrigger {
	return &CheckpointTrigger{
		req:  make(chan chan *Checkpoint),
		done: make(chan struct{}),
	}
}

// Finish marks the run over. Every Request blocked on the engine — and
// every future Request — returns ErrRunEnded immediately instead of waiting
// for a checkpoint loop that will never poll again. The run paths call this
// on exit (deferred), closing the race where a trigger request lands in the
// instant between the engine's last poll and its return: without Finish
// such a request blocks forever on the unbuffered request channel.
// Idempotent and nil-safe.
func (t *CheckpointTrigger) Finish() {
	if t == nil {
		return
	}
	t.once.Do(func() { close(t.done) })
}

// Request asks the running enumeration for a snapshot and blocks until it
// is delivered or ctx expires. A nil snapshot reply (the run ended or was
// stopping while the request was in flight) surfaces as ErrRunEnded; the
// final state is then available through the run's own checkpoint-on-stop
// path instead.
func (t *CheckpointTrigger) Request(ctx context.Context) (*Checkpoint, error) {
	if t == nil {
		return nil, errors.New("search: nil checkpoint trigger")
	}
	reply := make(chan *Checkpoint, 1)
	select {
	case t.req <- reply:
	case <-t.done:
		return nil, ErrRunEnded
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case cp := <-reply:
		if cp == nil {
			return nil, ErrRunEnded
		}
		return cp, nil
	case <-t.done:
		// The engine accepted the request, so its (buffered) reply was
		// sent before the run finished — but this select may pick the
		// done branch when both are ready. Drain the reply if present.
		select {
		case cp := <-reply:
			if cp != nil {
				return cp, nil
			}
		default:
		}
		return nil, ErrRunEnded
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Requests exposes the trigger's request stream to the engine side. Each
// received reply channel is buffered and must be sent exactly one value:
// the snapshot, or nil if the run cannot service it. A nil trigger returns
// a nil channel, which blocks forever in a select and is never ready in a
// non-blocking poll — both engine idioms stay nil-safe.
func (t *CheckpointTrigger) Requests() <-chan chan *Checkpoint {
	if t == nil {
		return nil
	}
	return t.req
}
