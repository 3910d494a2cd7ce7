package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gentrius"
)

// meter brackets a timed region with the process-wide counters; the two
// ReadMemStats stops stay outside the region.
type meter struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc0: ms.TotalAlloc, cpu0: cpuSeconds(), t0: time.Now()}
}

func (m meter) stop() unitSample {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return unitSample{
		wall:    wall,
		cpu:     cpu,
		allocMB: float64(ms.TotalAlloc-m.alloc0) / 1e6,
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// emit says what a library pass does with the stand trees.
type emit int

const (
	emitNone  emit = iota // OnTree nil: the engine never serialises a tree
	emitNoop              // OnTree set and empty: serialisation without a consumer
	emitFile              // OnTree writes each line through a 64 KiB bufio.Writer to a file
	emitProbe             // OnTree cancels the run at the first tree
)

// libRun is one way of calling the library: the variant of a pass.
type libRun struct {
	Threads int
	Emit    emit
	Sink    *gentrius.ObsSink
	Dir     string // where emitFile writes
}

// libOut is one unit's outcome.
type libOut struct {
	Sample unitSample
	Got    observed
}

// unit runs one input through the public entry points, timing from the
// constraint text to the returned result: parse, then enumerate.
func (lr libRun) unit(in *input) (libOut, error) {
	text := in.text()
	opt := gentrius.Options{
		Threads: lr.Threads, InitialTree: gentrius.UseInitialTreeHeuristic,
		MaxTrees: -1, MaxStates: -1, MaxTime: -1,
		Obs: lr.Sink,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		first time.Duration
		seen  int64
		file  *os.File
		bw    *bufio.Writer
		werr  error
		path  string
		m     meter
	)
	switch lr.Emit {
	case emitNoop:
		opt.OnTree = func(string) {}
	case emitProbe:
		opt.OnTree = func(string) {
			if seen++; seen == 1 {
				first = time.Since(m.t0)
				cancel()
			}
		}
	case emitFile:
		path = filepath.Join(lr.Dir, in.Name+".nwk")
		opt.OnTree = func(nw string) {
			if seen++; seen == 1 {
				first = time.Since(m.t0)
			}
			if _, err := bw.WriteString(nw); err != nil && werr == nil {
				werr = err
			}
			if err := bw.WriteByte('\n'); err != nil && werr == nil {
				werr = err
			}
		}
	}

	m = startMeter()
	if lr.Emit == emitFile {
		var err error
		if file, err = os.Create(path); err != nil {
			return libOut{}, err
		}
		bw = bufio.NewWriterSize(file, 64<<10)
	}
	cons, _, err := gentrius.ReadTrees(strings.NewReader(text), nil)
	if err != nil {
		return libOut{}, fmt.Errorf("%s: %w", in.Name, err)
	}
	res, err := gentrius.EnumerateStandContext(ctx, cons, opt)
	if err != nil {
		return libOut{}, fmt.Errorf("%s: %w", in.Name, err)
	}
	if lr.Emit == emitFile {
		if err := bw.Flush(); err != nil && werr == nil {
			werr = err
		}
		if err := file.Close(); err != nil && werr == nil {
			werr = err
		}
	}
	sample := m.stop()
	sample.firstTree = first.Seconds()
	if werr != nil {
		return libOut{}, fmt.Errorf("%s: writing trees: %w", in.Name, werr)
	}

	out := libOut{Sample: sample}
	out.Got = observed{Stop: res.Stop.String()}
	out.Got.Counters.StandTrees = res.StandTrees
	out.Got.Counters.IntermediateStates = res.IntermediateStates
	out.Got.Counters.DeadEnds = res.DeadEnds
	if lr.Emit == emitFile {
		out.Got.Trees = &treeSet{}
		if err := out.Got.Trees.addFile(path); err != nil {
			return libOut{}, err
		}
		os.Remove(path)
	}
	return out, nil
}

// pass runs every input once and checks each against the oracle. The
// probe variant is cut short on purpose, so only its first tree is checked.
func (lr libRun) pass(inputs []input, exps []expected) ([]unitSample, []string) {
	samples := make([]unitSample, len(inputs))
	var problems []string
	runtime.GC() // every pass starts from a collected heap, at no cost to its clock
	for i := range inputs {
		out, err := lr.unit(&inputs[i])
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case lr.Emit == emitProbe:
			if out.Sample.firstTree <= 0 && exps[i].Counters.StandTrees > 0 {
				problems = append(problems, inputs[i].Name+": no first tree")
			}
		default:
			if p := exps[i].check(out.Got); p != "" {
				problems = append(problems, inputs[i].Name+": "+p)
			}
		}
		samples[i] = out.Sample
	}
	return samples, problems
}
