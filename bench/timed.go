package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// variant is one way a workload's pass is run; every round runs every
// variant, in order, so a slow streak of the host hits all of them. reps is
// how often the variant runs inside one round (workload.Cheap for the
// variants that take milliseconds, otherwise 1).
type variant struct {
	name string
	reps int
	run  func() ([]unitSample, []string)
	log  variantLog
}

// prepared is a workload ready to measure: inputs, oracle, scratch space.
type prepared struct {
	cfg     *config
	dir     string
	inputs  []input
	exps    []expected
	oracleS float64
}

// prepare sets the workload up once and runs the serial oracle over its
// inputs.
func prepare(cfg *config) (*prepared, error) {
	dir, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	p := &prepared{cfg: cfg, dir: dir}
	inputs, stop, err := cfg.setUp(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stop()
	p.inputs = inputs

	t0 := time.Now()
	for i := range p.inputs {
		exp, err := oracleRun(&p.inputs[i], cfg.W.Kind != kindCount)
		if err != nil {
			return nil, err
		}
		p.exps = append(p.exps, exp)
	}
	p.oracleS = time.Since(t0).Seconds()
	return p, nil
}

// setupVariant repeats the set-up routine as one more variant of the
// round-robin. Set-up takes milliseconds; repeated back to back before the
// rounds, all its samples would fall into one streak of the host, and the
// floor would be that streak's speed.
func (p *prepared) setupVariant() *variant {
	return &variant{name: "setup", reps: p.cfg.W.Cheap, run: func() ([]unitSample, []string) {
		runtime.GC()
		t0 := time.Now()
		_, stop, err := p.cfg.setUp(filepath.Join(p.dir, "setup"))
		wall := time.Since(t0).Seconds()
		if err != nil {
			return []unitSample{{}}, []string{err.Error()}
		}
		stop()
		return []unitSample{{wall: wall}}, nil
	}}
}

// variants returns the workload's timed variants: the T=1 pass, the T=2
// pass, on the count workloads the first-tree probe (elsewhere the T=2
// pass sees its own first tree), and last the set-up.
func (p *prepared) variants() []*variant {
	lib := func(threads int, e emit) func() ([]unitSample, []string) {
		lr := libRun{Threads: threads, Emit: e, Dir: p.dir}
		return func() ([]unitSample, []string) { return lr.pass(p.inputs, p.exps) }
	}
	serve := func(threads int) func() ([]unitSample, []string) {
		sr := serveRun{Threads: threads}
		return func() ([]unitSample, []string) {
			sample, _, problems := sr.pass(filepath.Join(p.dir, "daemon"), p.inputs, p.exps)
			return []unitSample{sample}, problems
		}
	}
	switch p.cfg.W.Kind {
	case kindCount:
		return []*variant{
			{name: "t1", reps: 1, run: lib(1, emitNone)},
			{name: "t2", reps: 1, run: lib(2, emitNone)},
			{name: "probe", reps: p.cfg.W.Cheap, run: lib(2, emitProbe)},
			p.setupVariant(),
		}
	case kindStream:
		return []*variant{
			{name: "t1", reps: 1, run: lib(1, emitFile)},
			{name: "t2", reps: 1, run: lib(2, emitFile)},
			p.setupVariant(),
		}
	default:
		return []*variant{
			{name: "t1", reps: 1, run: serve(1)},
			{name: "t2", reps: 1, run: serve(2)},
			p.setupVariant(),
		}
	}
}

// measure runs the variants round-robin for the given number of rounds.
// The count is fixed and nothing cuts it short, so that every commit, on
// every host, is measured by the same number of samples.
func measure(vs []*variant, rounds int, led *ledger) {
	for r := 0; r < rounds; r++ {
		for _, v := range vs {
			for i := 0; i < v.reps; i++ {
				samples, problems := v.run()
				v.log.add(samples)
				led.record(v.name, problems)
			}
		}
	}
}

// runTimed is the untraced run: every end-to-end metric comes from here.
func runTimed(cfg *config) (*report, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	vs := p.variants()
	led := &ledger{}
	measure(vs, cfg.rounds(), led)

	logs := map[string]*variantLog{}
	for _, v := range vs {
		logs[v.name] = &v.log
	}
	t1, t2, setup := logs["t1"], logs["t2"], logs["setup"]
	first := logs["probe"]
	if first == nil {
		first = t2
	}
	rep := &report{
		Workload: cfg.W.Name, Seed: cfg.Seed, Rounds: cfg.rounds(),
		OpsAttempted: led.Attempted, OpsFailed: led.Failed, Failures: led.Failures,
		Metrics: map[string]metric{
			"setup_s":       {setup.sumOver(floor, wallOf), "s"},
			"wall_t1_s":     {t1.sumOver(floor, wallOf), "s"},
			"wall_t2_s":     {t2.sumOver(floor, wallOf), "s"},
			"first_tree_ms": {first.sumOver(floor, firstOf) * 1e3, "ms"},
			"cpu_t2_s":      {t2.sumOver(floor, cpuOf), "s"},
			"alloc_mb":      {t2.sumOver(minOf, allocOf), "MB"},
		},
	}
	t1Floor := t1.sumOver(floor, wallOf)
	rep.Info = map[string]metric{
		"host.noise_ratio": {median(t1.passTotals(wallOf)) / t1Floor, "ratio"},
		"bench.oracle_s":   {p.oracleS, "s"},
	}
	return rep, nil
}

func (p *prepared) cleanup() { os.RemoveAll(p.dir) }
