package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/experiments"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var workloads = []workload{
	{name: "fig9_saturation_8x8", setup: fig9Setup, refCells: []int{0}},
	{name: "churn_16x16", setup: churnSetup, refCells: []int{0}},
	{name: "overload_drain_8x8", setup: overloadSetup, refCells: overloadRefCells},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sample draws the i-th sampled irregular topology of a fault point.
func (rc *roundCtx) sample(p experiments.Params, kind topology.FaultKind, faults, i int) *topology.Topology {
	t0 := rc.tr.now()
	t := p.SampleTopology(kind, faults, i)
	rc.tr.add(spanSample, t0)
	rc.samples++
	return t
}

// --- fig9_saturation_8x8 -------------------------------------------------

// fig9Points are the fault counts of one round: every third point of
// the Quick-scale Fig. 9 sweep's link and router fault axes, with the
// sweep's first fig9Topologies sampled topologies each (base seed 0).
// The topologies do not depend on --seed: how many rates reach the knee
// differs between topologies, and with seeded topologies a round's
// allocation spread by 17% and its delivered flits by 8% over five
// seeds. The seed enters every cell's sweep key, which seeds its
// simulators and injectors.
var fig9Points = []struct {
	kind   topology.FaultKind
	faults int
}{
	{topology.LinkFaults, 1}, {topology.LinkFaults, 25}, {topology.LinkFaults, 49},
	{topology.LinkFaults, 73}, {topology.LinkFaults, 97},
	{topology.RouterFaults, 1}, {topology.RouterFaults, 16}, {topology.RouterFaults, 31},
	{topology.RouterFaults, 46},
}

const fig9Topologies = 2

var fig9Schemes = []string{schemeTree, schemeEscape, schemeSB}

func fig9Setup(seed int64, rc *roundCtx) ([]cell, error) {
	p := experiments.Quick()
	var cells []cell
	for _, pt := range fig9Points {
		for i := 0; i < fig9Topologies; i++ {
			topo := rc.sample(p, pt.kind, pt.faults, i)
			// Cold compiles of every table the cell's schemes use; the
			// cell's own lookups then hit the cache.
			rc.upDown(topo, routing.RootLowestID)
			rc.upDown(topo, routing.RootMedian)
			rc.minimal(topo)
			label := fmt.Sprintf("fig9/%v/%d/topo=%d", pt.kind, pt.faults, i)
			key := sweep.NewKey("sbbench/fig9").Int64("seed", seed).
				Str("kind", pt.kind.String()).Int("faults", pt.faults).Int("topo", i)
			cells = append(cells, cell{key: key, run: func(rc *roundCtx, cseed int64) (cellResult, error) {
				return fig9Cell(rc, p, topo, label, cseed)
			}})
		}
	}
	return cells, nil
}

// fig9Cell finds each scheme's saturation throughput on one topology
// the way experiments.Fig9 does: offered load climbs the
// SaturationRates ladder until accepted throughput falls past the knee.
func fig9Cell(rc *roundCtx, p experiments.Params, topo *topology.Topology, label string, seed int64) (cellResult, error) {
	out := cellResult{Label: label}
	rates := experiments.SaturationRates
	for si, scheme := range fig9Schemes {
		best := 0.0
		for ri, rate := range rates {
			stream := si*2*len(rates) + 2*ri
			r := rc.buildScheme(topo.Clone(), scheme, sweep.SubSeed(seed, stream))
			inj := r.injector(rate, sweep.SubSeed(seed, stream+1))
			for c := 0; c < p.WarmupCycles; c++ {
				r.cycle(inj)
			}
			base, baseNow := r.s.Stats.DeliveredFlits, r.s.Now
			for c := 0; c < p.MeasureCycles; c++ {
				r.cycle(inj)
			}
			accepted := float64(r.s.Stats.DeliveredFlits-base) / float64(r.s.Now-baseNow) / float64(r.alive)
			rec, err := r.finish(rate, scheme == schemeTree, scheme == schemeTree)
			if err != nil {
				return out, fmt.Errorf("%s rate %v: %w", label, rate, err)
			}
			out.Sims = append(out.Sims, rec)
			if accepted > best {
				best = accepted
			}
			if accepted < 0.6*rate && best > accepted {
				break
			}
		}
	}
	return out, nil
}

// --- churn_16x16 ---------------------------------------------------------

// Churn timeline parameters: Static Bubble on a 16×16 mesh under light
// load while links and routers fail and recover. Each cell has exactly
// churnFailures failures, churnRouterFails of them routers, at the
// sorted times of uniform draws over the horizon: a Poisson process
// conditioned on its count, one failure per 1250 cycles. A free count
// made a round's reconfiguration work, and with it the allocation
// (mostly recompiled table columns), vary by a third from seed to seed;
// the fixed count and the doubled rate of the experiments package's
// full-scale churn average it down.
const (
	churnCells       = 2
	churnCycles      = 150_000
	churnRate        = 0.01 // flits/node/cycle
	churnFailures    = 120
	churnRouterFails = 30
	churnMeanRepair  = 4000.0
)

type churnState struct {
	r   *simRun
	mgr *reconfig.Manager
	inj *traffic.Injector
}

func churnSetup(seed int64, rc *roundCtx) ([]cell, error) {
	cells := make([]cell, churnCells)
	for i := range cells {
		key := sweep.NewKey("sbbench/churn").Int64("seed", seed).Int("cell", i)
		cseed := key.Seed()
		t0 := rc.tr.now()
		topo := topology.NewMesh(16, 16)
		rc.tr.add(spanSample, t0)
		rc.samples++
		r := rc.newSim(topo, schemeSB, sweep.SubSeed(cseed, 0))
		r.attachSB(false)
		t0 = rc.tr.now()
		mgr := reconfig.New(r.s)
		rc.tr.add(spanCompile, t0)
		mgr.SetScheme(r.sb)
		r.alg = mgr.Algorithm()
		st := &churnState{r: r, mgr: mgr, inj: r.injector(churnRate, sweep.SubSeed(cseed, 2))}
		label := fmt.Sprintf("churn/%d", i)
		cells[i] = cell{key: key, run: func(rc *roundCtx, _ int64) (cellResult, error) {
			return churnCell(st, label, cseed)
		}}
	}
	return cells, nil
}

type pendingRecover struct {
	at int64
	ev reconfig.Event
}

// churnCell runs one churn timeline. A failure picks an alive router
// (while more than half the mesh is up) or an alive link (while more
// links than nodes are up); each recovers after an exponential
// downtime, if that falls within the horizon.
func churnCell(st *churnState, label string, seed int64) (cellResult, error) {
	r, mgr, s := st.r, st.mgr, st.r.s
	rc, tr := r.rc, r.rc.tr
	topo := s.Topo
	out := cellResult{Label: label}
	erng := rand.New(rand.NewSource(sweep.SubSeed(seed, 1)))
	failAt := make([]int64, churnFailures)
	for i := range failAt {
		failAt[i] = erng.Int63n(churnCycles)
	}
	sort.Slice(failAt, func(i, j int) bool { return failAt[i] < failAt[j] })
	routerFail := make([]bool, churnFailures)
	for _, i := range erng.Perm(churnFailures)[:churnRouterFails] {
		routerFail[i] = true
	}
	var recovers []pendingRecover
	submit := func(ev reconfig.Event) error {
		t0 := tr.now()
		o, err := mgr.Submit(ev)
		tr.add(spanSubmit, t0)
		if err != nil {
			return violation("%s: submit %v: %v", label, ev, err)
		}
		if o == reconfig.OutApplied {
			out.Events++
			r.alive = int64(topo.AliveRouterCount())
		}
		return nil
	}
	scheduleRecover := func(now int64, ev reconfig.Event) {
		at := now + 1 + int64(erng.ExpFloat64()*churnMeanRepair)
		i := len(recovers)
		recovers = append(recovers, pendingRecover{at: at, ev: ev})
		for i > 0 && recovers[i-1].at > at {
			recovers[i-1], recovers[i] = recovers[i], recovers[i-1]
			i--
		}
	}
	numNodes := topo.NumNodes()
	next := 0
	for cyc := 0; cyc < churnCycles; cyc++ {
		now := s.Now
		for len(recovers) > 0 && recovers[0].at <= now {
			ev := recovers[0].ev
			recovers = recovers[:copy(recovers, recovers[1:])]
			if err := submit(ev); err != nil {
				return out, err
			}
		}
		for ; next < len(failAt) && failAt[next] <= now; next++ {
			var ev, rev reconfig.Event
			if routerFail[next] {
				alive := topo.AliveRouters()
				if len(alive) <= numNodes/2 {
					continue
				}
				n := alive[erng.Intn(len(alive))]
				ev = reconfig.Event{Kind: reconfig.EvFailRouter, Node: n}
				rev = reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n}
			} else {
				links := topo.AliveUndirectedLinks()
				if len(links) <= numNodes {
					continue
				}
				l := links[erng.Intn(len(links))]
				ev = reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir}
				rev = reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir}
			}
			if err := submit(ev); err != nil {
				return out, err
			}
			scheduleRecover(now, rev)
		}
		r.cycle(st.inj)
	}
	rec, err := r.finish(churnRate, true, false)
	if err != nil {
		return out, err
	}
	out.Sims = append(out.Sims, rec)
	out.Table = mgr.TableStats()
	out.Table.CompileNs, out.Table.LastCompileNs = 0, 0
	// Routes after the last event must be shortest paths over the links
	// still alive.
	err = rc.check(func() error {
		return checkRoutes(topo, mgr.Route)
	})
	if err != nil {
		return out, fmt.Errorf("%s: %w", label, err)
	}
	return out, nil
}

// --- overload_drain_8x8 --------------------------------------------------

// Overload-drain cells drive a link-faulted 8×8 mesh at overloadRate
// for overloadCycles, stop injecting, and step until the network is
// empty or overloadDrainCap cycles pass. A cell fails when anything is
// still in flight or queued at the cap.
const (
	overloadRate     = 0.3
	overloadCycles   = 2000
	overloadDrainCap = 20_000
)

// The seed-independent matrix: link faults × topology seeds × schemes,
// with the topology, simulator and injector seeds sbsim derives from
// -seed. Static Bubble and SPIN wedge on some of these topologies, the
// same cells in every run (README.md lists them). overloadRefCells are
// the three schemes at 8 faults, topology seed 2.
var (
	overloadFaults    = []int{0, 8, 16}
	overloadTopoSeeds = []int64{1, 2, 3}
	overloadSchemes   = []string{schemeSB, schemeSpin, schemeEscape}
	overloadRefCells  = []int{12, 13, 14}
	// overloadSeededFaults are the link-fault counts of the escape_vc
	// cells whose topology --seed draws.
	overloadSeededFaults = []int{8, 16}
)

type overloadInput struct {
	label            string
	topo             *topology.Topology
	scheme           string
	simSeed, injSeed int64
}

func overloadSetup(seed int64, rc *roundCtx) ([]cell, error) {
	var ins []overloadInput
	add := func(label string, ts int64, faults int, schemes []string) {
		topo := rc.sample(experiments.Params{BaseSeed: ts}, topology.LinkFaults, faults, 0)
		for _, sch := range schemes {
			ins = append(ins, overloadInput{label: label + sch, topo: topo, scheme: sch, simSeed: ts, injSeed: ts + 1000})
		}
	}
	for _, f := range overloadFaults {
		for _, ts := range overloadTopoSeeds {
			add(fmt.Sprintf("overload/faults=%d/seed=%d/", f, ts), ts, f, overloadSchemes)
		}
	}
	// Only escape_vc is seeded: it drained on every topology tried,
	// while Static Bubble and SPIN wedge on some.
	for _, f := range overloadSeededFaults {
		add(fmt.Sprintf("overload/faults=%d/seeded/", f), sweep.SubSeed(seed, f), f, []string{schemeEscape})
	}
	cells := make([]cell, len(ins))
	for i := range ins {
		in := ins[i]
		// Cold compiles; the cell's own lookups hit the cache.
		if in.scheme == schemeEscape {
			rc.upDown(in.topo, routing.RootMedian)
		}
		rc.minimal(in.topo)
		key := sweep.NewKey("sbbench/overload").Int64("seed", seed).Str("cell", in.label)
		cells[i] = cell{key: key, run: func(rc *roundCtx, _ int64) (cellResult, error) {
			return overloadCell(rc, in)
		}}
	}
	return cells, nil
}

func overloadCell(rc *roundCtx, in overloadInput) (cellResult, error) {
	out := cellResult{Label: in.label}
	r := rc.buildScheme(in.topo.Clone(), in.scheme, in.simSeed)
	inj := r.injector(overloadRate, in.injSeed)
	for c := 0; c < overloadCycles; c++ {
		r.cycle(inj)
	}
	for c := 0; c < overloadDrainCap && !drained(r.s.InFlight(), r.s.QueuedPackets()); c++ {
		r.cycle(nil)
	}
	rec, err := r.finish(overloadRate, true, false)
	if err != nil {
		return out, fmt.Errorf("%s: %w", in.label, err)
	}
	out.Sims = append(out.Sims, rec)
	out.Failed = !drained(rec.InFlight, rec.Queued)
	return out, nil
}
