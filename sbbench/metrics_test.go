package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/network"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Fatalf("median(5,1,3) = %v", m)
	}
	if xs[0] != 5 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median(4,1,3,2) = %v", m)
	}
}

// round builds a round whose one simulator stepped routerCycles
// router-cycles and delivered flits.
func round(wall, cpu time.Duration, alloc uint64, routerCycles, flits int64, setups ...time.Duration) roundResult {
	return roundResult{
		setups: setups, wall: wall, cpu: cpu, alloc: alloc,
		cells: []cellResult{{Sims: []simRecord{{
			RouterCycles: routerCycles,
			Stats:        network.Stats{DeliveredFlits: flits},
		}}}},
	}
}

func TestEndToEndMetricsHandComputed(t *testing.T) {
	ms := time.Millisecond
	rounds := []roundResult{
		round(2*time.Second, 3*time.Second, 4<<20, 8_000_000, 500, 9*ms, 1*ms, 2*ms),
		round(4*time.Second, 5*time.Second, 2<<20, 8_000_000, 500, 3*ms, 4*ms, 5*ms),
		round(3*time.Second, 4*time.Second, 6<<20, 6_000_000, 500, 6*ms, 7*ms, 8*ms),
	}
	m := endToEndMetrics(rounds, 12.5)
	want := map[string]float64{
		"wall_s":  3,
		"cpu_s":   4,
		"setup_s": 0.005, // median of 9,1,2,3,4,5,6,7,8 ms
		// per-round rates 4e6, 2e6, 2e6
		"router_cycles_per_s": 2e6,
		"heap_alloc_mb":       4,
		"peak_rss_mb":         12.5,
		"delivered_flits":     500,
	}
	if len(m) != len(want) {
		t.Fatalf("got %d metrics, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if !near(m[k].Value, v) {
			t.Errorf("%s = %v, want %v", k, m[k].Value, v)
		}
	}
}

func TestLayerMetricsHandComputed(t *testing.T) {
	tr := &tracer{}
	tr.ns[spanStep] = 10_000
	tr.ns[spanCoreHook] = 3_000
	tr.ns[spanEscapeHook] = 1_000
	tr.cycles[spanStep] = 100
	tr.cycles[spanCoreHook] = 50
	tr.cycles[spanEscapeHook] = 0
	tr.ns[spanCompile] = 4e6
	tr.cellNs = []int64{1e6, 3e6, 2e6, 8e6}
	r := roundResult{
		wall: 2 * time.Second, compiles: 7, cacheHits: 11, jobs: 4,
		cells: []cellResult{{Sims: []simRecord{
			{Stats: network.Stats{ProbesSent: 8, ProbesReturned: 2, HopMoves: 5}, Blocked: -1},
			{Stats: network.Stats{ProbesSent: 2, ProbesReturned: 3, HopMoves: 1}, Blocked: 4},
		}}},
	}
	traced := []roundResult{{wall: 2500 * time.Millisecond}, {wall: 2700 * time.Millisecond}}
	plain := []roundResult{{wall: 2 * time.Second}, {wall: 2200 * time.Millisecond}, {wall: 9 * time.Second}}
	m := layerMetrics(tr, r, plain, traced)
	want := map[string]float64{
		"network.step_self_ns_per_cycle": 60, // (10000-3000-1000)/100
		"core.hook_ns_per_cycle":         60, // 3000/50
		"escape.hook_ns_per_cycle":       0,
		"routing.compile_ms":             2, // 4 ms over two traced rounds
		"routing.compiles":               7,
		"routing.cache_hits":             11,
		"core.probes_sent":               10,
		"core.probe_return_ratio":        0.5,
		"network.hop_moves":              6,
		"deadlock.blocked_packets":       4,
		"sweep.cell_ms_p50":              2.5,
		"sweep.cell_ms_max":              8,
		"sweep.jobs":                     4,
		"trace.overhead_s":               0.4, // 2.6 - 2.2
	}
	for k, v := range want {
		if !near(m[k].Value, v) {
			t.Errorf("%s = %v, want %v", k, m[k].Value, v)
		}
	}
}
