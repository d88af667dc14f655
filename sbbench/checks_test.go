package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func isViolation(err error) bool {
	var v *violationError
	return errors.As(err, &v)
}

// runSmall steps a Static Bubble simulator on a 4×4 mesh under load.
func runSmall(t *testing.T, rc *roundCtx) (*simRun, simRecord) {
	t.Helper()
	r := rc.buildScheme(topology.NewMesh(4, 4), schemeSB, 7)
	inj := r.injector(0.2, 8)
	for c := 0; c < 300; c++ {
		r.cycle(inj)
	}
	rec, err := r.finish(0.2, true, false)
	if err != nil {
		t.Fatalf("untampered simulator fails its checks: %v", err)
	}
	return r, rec
}

func TestCheckSimRejectsBrokenConservation(t *testing.T) {
	r, _ := runSmall(t, &roundCtx{})
	if r.s.Stats.Offered == 0 {
		t.Fatal("no traffic offered")
	}
	r.s.Stats.Offered++
	if err := checkSim(r.s, r.sb); !isViolation(err) || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("checkSim after Offered++ = %v, want a conservation violation", err)
	}
}

func TestCheckConservationHandComputed(t *testing.T) {
	st := network.Stats{Offered: 10, Delivered: 6, Lost: 1}
	if err := checkConservation(st, 2, 1); err != nil {
		t.Fatalf("10 = 6 + 2 + 1 + 1 rejected: %v", err)
	}
	if err := checkConservation(st, 2, 2); !isViolation(err) {
		t.Fatalf("10 != 6 + 2 + 2 + 1 accepted (err %v)", err)
	}
}

func TestDrainJudgedByQueuesAndNetwork(t *testing.T) {
	if !drained(0, 0) || drained(1, 0) || drained(0, 1) {
		t.Fatal("drained must hold exactly when nothing is in flight or queued")
	}
}

func TestDiffStatsNamesTheField(t *testing.T) {
	_, rec := runSmall(t, &roundCtx{})
	if err := diffStats(rec.Stats, rec.Stats); err != nil {
		t.Fatalf("equal Stats differ: %v", err)
	}
	got := rec.Stats
	got.HopMoves++
	if err := diffStats(rec.Stats, got); err == nil || !strings.Contains(err.Error(), "HopMoves") {
		t.Fatalf("diffStats = %v, want a HopMoves mismatch", err)
	}
	got = rec.Stats
	got.LinkCycles[network.ClassProbe]++
	if err := diffStats(rec.Stats, got); err == nil || !strings.Contains(err.Error(), "LinkCycles") {
		t.Fatalf("diffStats = %v, want a LinkCycles mismatch", err)
	}
}

// faultedManager returns a reconfiguration manager over a 4×4 mesh
// with one link and one router failed.
func faultedManager(t *testing.T) (*topology.Topology, *reconfig.Manager) {
	t.Helper()
	rc := &roundCtx{}
	r := rc.newSim(topology.NewMesh(4, 4), schemeSB, 1)
	mgr := reconfig.New(r.s)
	for _, ev := range []reconfig.Event{
		{Kind: reconfig.EvFailLink, Node: 5, Dir: geom.East},
		{Kind: reconfig.EvFailRouter, Node: 10},
	} {
		if _, err := mgr.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	return r.s.Topo, mgr
}

func TestCheckRoutesAcceptsManagerRoutes(t *testing.T) {
	topo, mgr := faultedManager(t)
	if err := checkRoutes(topo, mgr.Route); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRoutesRejectsTamperedRoutes(t *testing.T) {
	topo, mgr := faultedManager(t)
	// 0 -> 1 is one hop east; the detour north, east, south is valid
	// but two hops longer than the breadth-first distance.
	cases := map[string]func(src, dst geom.NodeID) (routing.Route, bool){
		"longer than BFS": func(src, dst geom.NodeID) (routing.Route, bool) {
			if src == 0 && dst == 1 {
				return routing.Route{geom.North, geom.East, geom.South}, true
			}
			return mgr.Route(src, dst)
		},
		"missing route": func(src, dst geom.NodeID) (routing.Route, bool) {
			if src == 0 && dst == 15 {
				return nil, false
			}
			return mgr.Route(src, dst)
		},
		"dead link": func(src, dst geom.NodeID) (routing.Route, bool) {
			if src == 5 && dst == 6 {
				return routing.Route{geom.East}, true
			}
			return mgr.Route(src, dst)
		},
		"wrong destination": func(src, dst geom.NodeID) (routing.Route, bool) {
			if src == 0 && dst == 2 {
				return routing.Route{geom.East}, true
			}
			return mgr.Route(src, dst)
		},
	}
	for name, route := range cases {
		if err := checkRoutes(topo, route); !isViolation(err) {
			t.Errorf("%s: checkRoutes = %v, want a violation", name, err)
		}
	}
}

func TestBFSHopsAroundFaults(t *testing.T) {
	topo, _ := faultedManager(t)
	d := bfsHops(topo, 5)
	// 5 -> 6 lost its direct link: around through 1 or 9 takes 3 hops.
	if d[6] != 3 || d[10] != -1 || d[4] != 1 || d[5] != 0 {
		t.Fatalf("bfsHops(5) = %v", d)
	}
}

// Tracing wraps the scheme hooks and times the call sites; it must not
// change a single simulated counter.
func TestTracedRunMatchesUntraced(t *testing.T) {
	_, plain := runSmall(t, &roundCtx{})
	tr := &tracer{}
	r, traced := runSmall(t, &roundCtx{tr: tr})
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced record differs:\n%+v\n%+v", plain, traced)
	}
	if n := len(r.s.PreCycle) + len(r.s.PostCycle); n != 2 {
		t.Fatalf("hook count %d after wrapping, want 2", n)
	}
	for _, sp := range []span{spanStep, spanCoreHook, spanTick, spanBuild, spanCompile, spanAnalyze} {
		if tr.ns[sp] <= 0 {
			t.Errorf("span %d recorded no time", sp)
		}
	}
	if tr.cycles[spanStep] != 300 || tr.cycles[spanCoreHook] != 300 || tr.cycles[spanTick] != 300 {
		t.Errorf("cycles = %v, want 300 stepped, hooked and ticked", tr.cycles)
	}
}

func TestReferenceStepperMatchesEventCore(t *testing.T) {
	_, event := runSmall(t, &roundCtx{})
	_, ref := runSmall(t, &roundCtx{ref: true})
	if err := diffStats(event.Stats, ref.Stats); err != nil {
		t.Fatal(err)
	}
}
