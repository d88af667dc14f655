package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/sweep"
)

// workload is one benchmark input family. setup prepares a round's
// inputs (topologies, compiled routing tables, and for churn the
// simulators) and returns its cells; refCells names the cells that are
// re-run on the full-scan reference stepper.
type workload struct {
	name     string
	setup    func(seed int64, rc *roundCtx) ([]cell, error)
	refCells []int
}

// cell is one operation: one sweep job.
type cell struct {
	key *sweep.Key
	run func(rc *roundCtx, seed int64) (cellResult, error)
}

// cellResult holds every simulated counter a cell produced. Rounds of
// the same seed must produce equal results, traced or not.
type cellResult struct {
	Label string
	Sims  []simRecord
	// Table is the reconfiguration manager's table counters, with the
	// wall-clock fields zeroed (churn only).
	Table  reconfig.TableStats
	Events int64
	// Failed marks an operation that failed: an overload cell that did
	// not drain by its cap.
	Failed bool
}

// simRecord is one simulator's final state.
type simRecord struct {
	Scheme   string
	Rate     float64
	Stats    network.Stats
	Counters network.StepperCounters
	Cycles   int64
	// RouterCycles sums the alive router count over every stepped cycle.
	RouterCycles     int64
	InFlight, Queued int64
	// Blocked is len(deadlock.Analyze) at the end, or -1 when the
	// workload does not analyze this simulator.
	Blocked int
}

// violationError reports a failed correctness check.
type violationError struct{ msg string }

func (v *violationError) Error() string { return "check failed: " + v.msg }

func violation(format string, args ...any) error {
	return &violationError{msg: fmt.Sprintf(format, args...)}
}

// roundCtx carries one round's instrumentation: the tracer (nil when
// untraced), whether simulators step on the reference model, and the
// accounting that keeps the correctness checks out of the timed window.
type roundCtx struct {
	tr  *tracer
	ref bool

	checkWall  time.Duration
	checkCPU   time.Duration
	checkAlloc uint64

	samples int64
}

// check runs f outside the timed window: its wall time, CPU time and
// allocation are subtracted from the round's figures.
func (rc *roundCtx) check(f func() error) error {
	w0, c0, a0 := time.Now(), cpuTime(), heapAllocs()
	err := f()
	rc.checkWall += time.Since(w0)
	rc.checkCPU += cpuTime() - c0
	rc.checkAlloc += heapAllocs() - a0
	return err
}

// roundResult is one round's measurements.
type roundResult struct {
	setups    []time.Duration
	wall, cpu time.Duration
	alloc     uint64
	cells     []cellResult
	// routing counters of the round (the table cache is reset at its
	// start), and sweep engine counters.
	compiles, cacheHits int64
	jobs, jobsFailed    int
	samples             int64
}

func (r *roundResult) routerCycles() int64 {
	var n int64
	for _, c := range r.cells {
		for _, s := range c.Sims {
			n += s.RouterCycles
		}
	}
	return n
}

func (r *roundResult) deliveredFlits() int64 {
	var n int64
	for _, c := range r.cells {
		for _, s := range c.Sims {
			n += s.Stats.DeliveredFlits
		}
	}
	return n
}

func (r *roundResult) failedCells() int {
	n := 0
	for _, c := range r.cells {
		if c.Failed {
			n++
		}
	}
	return n
}

// setupReps is how many times a round sets its inputs up. Set-up takes
// milliseconds, so one sample per round would be mostly noise; the
// median over every repetition of a run is steady.
const setupReps = 5

// runRound sets the round's inputs up setupReps times (the table cache
// is reset before each, so every compile is cold), keeps the last, and
// runs every cell on a one-worker sweep engine with no result cache.
// The first set-up is timed from start.
func runRound(w workload, seed int64, start time.Time, tr *tracer) (roundResult, error) {
	var out roundResult
	var rc *roundCtx
	var cells []cell
	for k := 0; k < setupReps; k++ {
		rc = &roundCtx{}
		if k == setupReps-1 {
			rc.tr = tr
		}
		if k > 0 {
			start = time.Now()
		}
		routing.ResetTableCache()
		var err error
		if cells, err = w.setup(seed, rc); err != nil {
			return out, err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	eng := sweep.New(sweep.Config{Workers: 1})
	w0, c0, a0 := time.Now(), cpuTime(), heapAllocs()
	results := sweep.Run(eng, len(cells), func(i int) *sweep.Key { return cells[i].key },
		func(i int, cseed int64) (cellResult, error) {
			t0 := time.Now()
			r, err := cells[i].run(rc, cseed)
			tr.cellDone(time.Since(t0))
			return r, err
		})
	out.wall = time.Since(w0) - rc.checkWall
	out.cpu = cpuTime() - c0 - rc.checkCPU
	out.alloc = heapAllocs() - a0 - rc.checkAlloc
	out.samples = rc.samples
	for i, res := range results {
		if res.Err != nil {
			var v *violationError
			if errors.As(res.Err, &v) {
				return out, res.Err
			}
			return out, fmt.Errorf("cell %s: %w", cells[i].key.Canonical(), res.Err)
		}
		out.cells = append(out.cells, res.Value)
	}
	cs := routing.CacheStats()
	out.compiles, out.cacheHits = cs.Compiles, cs.Hits
	for _, c := range out.cells {
		out.compiles += c.Table.Full
		out.cacheHits += c.Table.Hits
	}
	st := eng.Stats()
	out.jobs, out.jobsFailed = st.Jobs, st.Failed
	return out, nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload repeats whole rounds until the run length is spent, then
// re-runs the reference subset and reports. Every round must reproduce
// the first round's simulated counters exactly. In a traced run the
// rounds alternate untraced and traced.
func runWorkload(w workload, seed int64, length time.Duration, traced bool) (result, error) {
	res := result{Correct: true}
	var rounds, plain, withTrace []roundResult
	tr := &tracer{}
	begin := time.Now()
	start := processStart
	for len(rounds) == 0 || time.Since(begin) < length || (traced && len(withTrace) == 0) {
		var rtr *tracer
		if traced && len(rounds)%2 == 1 {
			rtr = tr
		}
		r, err := runRound(w, seed, start, rtr)
		if err != nil {
			return res, err
		}
		if len(rounds) > 0 && !reflect.DeepEqual(r.cells, rounds[0].cells) {
			return res, violation("round %d's simulated counters differ from round 0's (traced=%v)",
				len(rounds), rtr != nil)
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "round %d: traced=%v setup %v wall %.3fs cpu %.3fs cells %d failed %d\n",
			len(rounds)-1, rtr != nil, r.setups, r.wall.Seconds(), r.cpu.Seconds(), len(r.cells), r.failedCells())
		if rtr != nil {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		res.Attempted += int64(len(r.cells))
		res.Failed += int64(r.failedCells())
		start = time.Now()
	}
	peakRSS := peakRSSMB()
	if err := checkReference(w, seed, rounds[0].cells); err != nil {
		return res, err
	}
	if traced {
		res.Metrics = layerMetrics(tr, rounds[0], plain, withTrace)
	} else {
		res.Metrics = endToEndMetrics(rounds, peakRSS)
	}
	return res, nil
}

// checkReference sets the workload up again on the full-scan reference
// stepper, unpooled, and re-runs its reference cells from identical
// seeds: every simulator's Stats must equal the event core's.
func checkReference(w workload, seed int64, want []cellResult) error {
	rc := &roundCtx{ref: true}
	cells, err := w.setup(seed, rc)
	if err != nil {
		return err
	}
	for _, i := range w.refCells {
		got, err := cells[i].run(rc, cells[i].key.Seed())
		if err != nil {
			return err
		}
		if len(got.Sims) != len(want[i].Sims) {
			return violation("%s: reference ran %d simulators, event core %d",
				got.Label, len(got.Sims), len(want[i].Sims))
		}
		for k := range got.Sims {
			if err := diffStats(want[i].Sims[k].Stats, got.Sims[k].Stats); err != nil {
				return violation("%s sim %d (%s): refmodel differs: %v", got.Label, k, got.Sims[k].Scheme, err)
			}
		}
	}
	return nil
}

// rusage returns the process's resource usage. getrusage(RUSAGE_SELF)
// can fail only on a bad pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the Go heap, the
// quantity MemStats.TotalAlloc reports, without stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
