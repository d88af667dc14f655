package main

import "sort"

// median returns the median of xs (the mean of the middle two for an
// even count); xs must be non-empty. It does not reorder xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundFigures are one round's end-to-end figures.
type roundFigures struct {
	wallS, cpuS, allocMB, routerCyclesPerS float64
}

func figures(r roundResult) roundFigures {
	wall := r.wall.Seconds()
	return roundFigures{
		wallS:            wall,
		cpuS:             r.cpu.Seconds(),
		allocMB:          float64(r.alloc) / (1 << 20),
		routerCyclesPerS: float64(r.routerCycles()) / wall,
	}
}

// endToEndMetrics reports each timed figure as the median over the
// run's rounds, and setup_s as the median over every set-up of the
// run. delivered_flits is simulated, identical in every round.
func endToEndMetrics(rounds []roundResult, peakRSS float64) map[string]metric {
	pick := func(f func(roundFigures) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(figures(r))
		}
		return median(xs)
	}
	var setups []float64
	for _, r := range rounds {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
	}
	return map[string]metric{
		"wall_s":              {pick(func(f roundFigures) float64 { return f.wallS }), "s"},
		"setup_s":             {median(setups), "s"},
		"cpu_s":               {pick(func(f roundFigures) float64 { return f.cpuS }), "s"},
		"peak_rss_mb":         {peakRSS, "MB"},
		"heap_alloc_mb":       {pick(func(f roundFigures) float64 { return f.allocMB }), "MB"},
		"router_cycles_per_s": {pick(func(f roundFigures) float64 { return f.routerCyclesPerS }), "1/s"},
		"delivered_flits":     {float64(rounds[0].deliveredFlits()), "flits"},
	}
}

// perCycle divides a span's host time by the cycles it covered.
func perCycle(tr *tracer, s span) float64 {
	if tr.cycles[s] == 0 {
		return 0
	}
	return float64(tr.ns[s]) / float64(tr.cycles[s])
}

// layerMetrics reports the per-layer metrics of a traced run: host
// times averaged over the traced rounds (tr accumulates all of them),
// simulated counts per round (every round has the same), and the
// tracing overhead against the untraced rounds.
func layerMetrics(tr *tracer, r roundResult, plain, traced []roundResult) map[string]metric {
	var sum struct {
		hops, dense, quiet, escXfer, offered, probes, returned, recov int64
		blocked, events, entries, colsRepaired                        int64
	}
	for _, c := range r.cells {
		sum.events += c.Events
		sum.entries += c.Table.EntriesRewritten
		sum.colsRepaired += c.Table.ColsRepaired
		for _, s := range c.Sims {
			sum.hops += s.Stats.HopMoves
			sum.dense += s.Counters.DenseCycles
			sum.quiet += s.Counters.QuietCycles
			sum.escXfer += s.Stats.EscapeTransfers
			sum.offered += s.Stats.Offered
			sum.probes += s.Stats.ProbesSent
			sum.returned += s.Stats.ProbesReturned
			sum.recov += s.Stats.DeadlockRecoveries
			if s.Blocked > 0 {
				sum.blocked += int64(s.Blocked)
			}
		}
	}
	n := float64(len(traced))
	msPerRound := func(s span) float64 { return float64(tr.ns[s]) / n / 1e6 }
	returnRatio := 0.0
	if sum.probes > 0 {
		returnRatio = float64(sum.returned) / float64(sum.probes)
	}
	stepSelf := 0.0
	if tr.cycles[spanStep] > 0 {
		stepSelf = float64(tr.ns[spanStep]-tr.ns[spanCoreHook]-tr.ns[spanEscapeHook]) / float64(tr.cycles[spanStep])
	}
	cellMs := make([]float64, len(tr.cellNs))
	cellMax := 0.0
	for i, ns := range tr.cellNs {
		cellMs[i] = float64(ns) / 1e6
		if cellMs[i] > cellMax {
			cellMax = cellMs[i]
		}
	}
	wall := func(rs []roundResult) float64 {
		xs := make([]float64, len(rs))
		for i, x := range rs {
			xs[i] = x.wall.Seconds()
		}
		return median(xs)
	}
	return map[string]metric{
		"network.step_self_ns_per_cycle": {stepSelf, "ns/cycle"},
		"network.build_ms":               {msPerRound(spanBuild), "ms/round"},
		"network.dense_cycles":           {float64(sum.dense), "cycles"},
		"network.quiet_cycles":           {float64(sum.quiet), "cycles"},
		"network.hop_moves":              {float64(sum.hops), "count"},
		"escape.hook_ns_per_cycle":       {perCycle(tr, spanEscapeHook), "ns/cycle"},
		"escape.transfers":               {float64(sum.escXfer), "count"},
		"traffic.tick_ns_per_cycle":      {perCycle(tr, spanTick), "ns/cycle"},
		"traffic.offered_packets":        {float64(sum.offered), "packets"},
		"core.hook_ns_per_cycle":         {perCycle(tr, spanCoreHook), "ns/cycle"},
		"core.probes_sent":               {float64(sum.probes), "count"},
		"core.probe_return_ratio":        {returnRatio, "ratio"},
		"core.recoveries":                {float64(sum.recov), "count"},
		"routing.compile_ms":             {msPerRound(spanCompile), "ms/round"},
		"routing.compiles":               {float64(r.compiles), "count"},
		"routing.cache_hits":             {float64(r.cacheHits), "count"},
		"reconfig.submit_ms":             {msPerRound(spanSubmit), "ms/round"},
		"reconfig.events":                {float64(sum.events), "count"},
		"reconfig.entries_rewritten":     {float64(sum.entries), "count"},
		"reconfig.cols_repaired":         {float64(sum.colsRepaired), "count"},
		"topology.sample_ms":             {msPerRound(spanSample), "ms/round"},
		"topology.samples":               {float64(r.samples), "count"},
		"deadlock.analyze_ms":            {msPerRound(spanAnalyze), "ms/round"},
		"deadlock.blocked_packets":       {float64(sum.blocked), "packets"},
		"sweep.cell_ms_p50":              {median(cellMs), "ms"},
		"sweep.cell_ms_max":              {cellMax, "ms"},
		"sweep.jobs":                     {float64(r.jobs), "count"},
		"sweep.failed":                   {float64(r.jobsFailed), "count"},
		"trace.overhead_s":               {wall(traced) - wall(plain), "s"},
	}
}
