package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/escape"
	"repro/internal/network"
	"repro/internal/network/refmodel"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The schemes under comparison, as the paper's Section V-B configures
// them: Table II's detection threshold and escape timeout.
const (
	schemeTree   = "sp_tree"
	schemeEscape = "escape_vc"
	schemeSB     = "static_bubble"
	schemeSpin   = "spin"

	tdd           = 34
	escapeTimeout = 34
)

// simRun drives one simulator through the benchmark's call sites.
type simRun struct {
	rc     *roundCtx
	scheme string
	s      *network.Sim
	step   func()
	alg    routing.Algorithm
	sb     *core.Controller
	// alive is the current alive router count; rcyc sums it over the
	// stepped cycles; ticks counts the cycles that offered traffic.
	alive int64
	rcyc  int64
	ticks int64
}

// newSim builds a simulator over topo and, on the reference round,
// detaches it onto the full-scan stepper with pooling off, so a pooling
// or wake-scheduling fault in the event core shows as a Stats mismatch.
func (rc *roundCtx) newSim(topo *topology.Topology, scheme string, seed int64) *simRun {
	t0 := rc.tr.now()
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(seed)))
	rc.tr.add(spanBuild, t0)
	r := &simRun{rc: rc, scheme: scheme, s: s, step: s.Step, alive: int64(topo.AliveRouterCount())}
	if rc.ref {
		r.step = refmodel.New(s).Step
		s.SetPooling(false)
	}
	return r
}

// attachSB installs Static Bubble (or SPIN) recovery.
func (r *simRun) attachSB(spin bool) {
	s, tr := r.s, r.rc.tr
	pre, post := len(s.PreCycle), len(s.PostCycle)
	t0 := tr.now()
	r.sb = core.Attach(s, core.Options{TDD: tdd, Spin: spin})
	tr.add(spanBuild, t0)
	tr.wrapHooks(s, pre, post, spanCoreHook)
}

// attachEscape installs escape-VC recovery over ud.
func (r *simRun) attachEscape(ud *routing.UpDown) {
	s, tr := r.s, r.rc.tr
	pre, post := len(s.PreCycle), len(s.PostCycle)
	t0 := tr.now()
	escape.Attach(s, ud, escape.Options{Timeout: escapeTimeout})
	tr.add(spanBuild, t0)
	tr.wrapHooks(s, pre, post, spanEscapeHook)
}

// minimal returns the cached minimal router for topo.
func (rc *roundCtx) minimal(topo *topology.Topology) *routing.Minimal {
	t0 := rc.tr.now()
	m := routing.MinimalFor(topo)
	rc.tr.add(spanCompile, t0)
	return m
}

// upDown returns the cached up*/down* router for topo.
func (rc *roundCtx) upDown(topo *topology.Topology, policy routing.RootPolicy) *routing.UpDown {
	t0 := rc.tr.now()
	u := routing.UpDownFor(topo, policy)
	rc.tr.add(spanCompile, t0)
	return u
}

// buildScheme builds a simulator for one of the three Fig. 9 schemes
// (or SPIN) over topo, the way experiments.Params.Build does.
func (rc *roundCtx) buildScheme(topo *topology.Topology, scheme string, seed int64) *simRun {
	r := rc.newSim(topo, scheme, seed)
	switch scheme {
	case schemeTree:
		r.alg = rc.upDown(topo, routing.RootLowestID).TreeAlgorithm()
	case schemeEscape:
		ud := rc.upDown(topo, routing.RootMedian)
		r.alg = rc.minimal(topo)
		r.attachEscape(ud)
	case schemeSB, schemeSpin:
		r.alg = rc.minimal(topo)
		r.attachSB(scheme == schemeSpin)
	}
	return r
}

// injector builds a Table II uniform-random injector over the alive
// routers at the given flit rate.
func (r *simRun) injector(rate float64, seed int64) *traffic.Injector {
	alive := r.s.Topo.AliveRouters()
	return traffic.NewInjector(alive, r.alg, traffic.NewUniformRandom(alive), rate, rand.New(rand.NewSource(seed)))
}

// cycle offers one cycle of traffic (when inj is non-nil) and steps.
func (r *simRun) cycle(inj *traffic.Injector) {
	tr := r.rc.tr
	if inj != nil {
		t0 := tr.now()
		inj.Tick(r.s)
		tr.add(spanTick, t0)
		r.ticks++
	}
	t0 := tr.now()
	r.step()
	tr.add(spanStep, t0)
	r.rcyc += r.alive
}

// finish checks the simulator at the end of its run — conservation and
// validate.Check always; deadlock.Analyze when analyze is set, which
// must find nothing blocked when deadlockFree is set — and records it.
func (r *simRun) finish(rate float64, analyze, deadlockFree bool) (simRecord, error) {
	s, tr := r.s, r.rc.tr
	cycles := s.Now
	tr.addCycles(spanStep, cycles)
	tr.addCycles(spanTick, r.ticks)
	if r.sb != nil {
		tr.addCycles(spanCoreHook, cycles)
	}
	if r.scheme == schemeEscape {
		tr.addCycles(spanEscapeHook, cycles)
	}
	rec := simRecord{
		Scheme: r.scheme, Rate: rate, Stats: s.Stats, Counters: s.StepperCounters(),
		Cycles: cycles, RouterCycles: r.rcyc,
		InFlight: s.InFlight(), Queued: s.QueuedPackets(), Blocked: -1,
	}
	err := r.rc.check(func() error {
		if err := checkSim(s, r.sb); err != nil {
			return err
		}
		if !analyze {
			return nil
		}
		t0 := tr.now()
		blocked := deadlock.Analyze(s)
		tr.add(spanAnalyze, t0)
		rec.Blocked = len(blocked)
		if deadlockFree && len(blocked) > 0 {
			return violation("%s: %d packets deadlocked at cycle %d", r.scheme, len(blocked), s.Now)
		}
		return nil
	})
	return rec, err
}
