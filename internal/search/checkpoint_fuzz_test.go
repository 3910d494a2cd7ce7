package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"
	"time"

	"gentrius/internal/tree"
)

// FuzzReadCheckpoint: a checkpoint file is bytes from outside the process.
// Whatever they are, decoding them, validating the result against the input,
// setting a run up from it and resuming that run for a bounded number of
// ticks returns errors and never panics; and the committed frontier of commit
// a3eaaa2 and a frontier the serial runner cuts, unmutated, resume to the
// totals of the uninterrupted serial run. The committed version-1 serial
// stack, its bare payload and a bare pre-envelope file are seeds that are
// turned away with ErrVersion.
//
// The envelope's CRC turns nearly every mutation of a file away at the door,
// so each file's bare payload is a seed too, and bytes that are no envelope
// are sealed in one as its payload: their mutations reach the version check,
// Validate, Start and the workers.
func FuzzReadCheckpoint(f *testing.F) {
	const dir = "../../testdata/ckpt_a3eaaa2/"
	input, err := os.ReadFile(dir + "input.trees")
	if err != nil {
		f.Fatal(err)
	}
	cons, err := tree.ReadLines(strings.Split(strings.TrimSpace(string(input)), "\n"))
	if err != nil {
		f.Fatal(err)
	}
	ref, err := Run(cons, Options{InitialTree: -1, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(dir + "serial_v1.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	var v1env envelope
	if err := json.Unmarshal(v1, &v1env); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte(v1env.Payload))
	v2, err := os.ReadFile(dir + "frontier_v2.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	files := [][]byte{v2}
	// And a frontier the serial runner cut at a check half-way.
	var cuts []*Checkpoint
	if _, err := Run(cons, Options{InitialTree: -1, CheckEvery: 16, Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
		Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(cp *Checkpoint) { cuts = append(cuts, cp) }}}); err != nil || len(cuts) == 0 {
		f.Fatalf("the serial run cut no checkpoint: %v", err)
	}
	data, err := cuts[len(cuts)/2].encode()
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, data)
	for _, data := range files {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add([]byte(env.Payload))
	}
	f.Add([]byte(legacyBareJSON))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			sealed := fmt.Appendf(nil, `{"format":%d,"crc32":%d,"payload":%s}`, envelopeFormat, crc32.ChecksumIEEE(data), data)
			if cp, err = decodeCheckpoint(sealed); err != nil {
				return
			}
		}
		if err := cp.Validate(cons); err != nil {
			return
		}
		su, err := Start(cons, -1, OrderMinBranches, nil, cp, 0)
		if err != nil {
			return
		}
		// One worker and a host that queues every offer, as drain does. A
		// forged frontier may hold the same task many times over: the budget
		// ends the resume, it does not judge it.
		h := &fakeHost{take: 1}
		w := su.NewWorker(Policy{}.Normalize(1), h, nil, false)
		budget := 4 * ref.Steps
		pending := su.Frontier.Tasks
		for len(pending) > 0 && budget > 0 {
			if err := w.Begin(pending[0]); err != nil {
				return
			}
			for ph := Explore; ph != Idle && budget > 0; budget-- {
				ph, _ = w.Tick(0)
			}
			pending = append(pending[1:], h.queue...)
			h.queue = nil
		}
		for _, file := range files {
			if !bytes.Equal(data, file) {
				continue
			}
			got := su.Counters
			got.Add(h.total)
			if got != ref.Counters || budget <= 0 {
				t.Fatalf("an unmutated checkpoint file resumed to %+v (budget left %d), the serial run counts %+v",
					got, budget, ref.Counters)
			}
		}
	})
}
