package main

import (
	"time"

	"repro/internal/network"
)

// span names a timed call site at a layer boundary.
type span int

const (
	spanStep       span = iota // network.Sim.Step, hooks included
	spanBuild                  // network.New, core.Attach, escape.Attach
	spanCoreHook               // PreCycle/PostCycle hooks core.Attach installs
	spanEscapeHook             // PostCycle hook escape.Attach installs
	spanTick                   // traffic.Injector.Tick
	spanCompile                // routing.MinimalFor/UpDownFor, reconfig.New's cold compile
	spanSubmit                 // reconfig.Manager.Submit
	spanSample                 // Params.SampleTopology, topology.NewMesh
	spanAnalyze                // deadlock.Analyze
	numSpans
)

// tracer accumulates host time per span, and the simulated cycles over
// which each per-cycle span ran. A nil tracer records nothing, so the
// untraced and traced runs execute the same call sites.
type tracer struct {
	ns     [numSpans]int64
	cycles [numSpans]int64
	cellNs []int64
}

func (tr *tracer) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (tr *tracer) add(s span, t0 time.Time) {
	if tr == nil {
		return
	}
	tr.ns[s] += int64(time.Since(t0))
}

func (tr *tracer) addCycles(s span, n int64) {
	if tr == nil {
		return
	}
	tr.cycles[s] += n
}

func (tr *tracer) cellDone(d time.Duration) {
	if tr == nil {
		return
	}
	tr.cellNs = append(tr.cellNs, int64(d))
}

// wrapHooks times the PreCycle hooks from index pre and the PostCycle
// hooks from index post on: the ones a scheme's Attach just installed.
// It replaces each hook in place, so the hook count the simulator's
// quiescence bookkeeping compares against is unchanged.
func (tr *tracer) wrapHooks(s *network.Sim, pre, post int, sp span) {
	if tr == nil {
		return
	}
	wrap := func(f func(*network.Sim)) func(*network.Sim) {
		return func(sim *network.Sim) {
			t0 := time.Now()
			f(sim)
			tr.ns[sp] += int64(time.Since(t0))
		}
	}
	for i := pre; i < len(s.PreCycle); i++ {
		s.PreCycle[i] = wrap(s.PreCycle[i])
	}
	for i := post; i < len(s.PostCycle); i++ {
		s.PostCycle[i] = wrap(s.PostCycle[i])
	}
}
