package main

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/validate"
)

// checkSim checks packet conservation from the simulator's public
// counters, then runs every invariant of validate.Check.
func checkSim(s *network.Sim, ctrl *core.Controller) error {
	if err := checkConservation(s.Stats, s.InFlight(), s.QueuedPackets()); err != nil {
		return err
	}
	if v := validate.Check(s, ctrl); len(v) > 0 {
		msgs := make([]string, 0, len(v))
		for _, x := range v {
			msgs = append(msgs, x.Error())
		}
		return violation("validate at cycle %d: %s", s.Now, strings.Join(msgs, "; "))
	}
	return nil
}

// checkConservation requires Offered == Delivered + InFlight + Queued + Lost.
func checkConservation(st network.Stats, inFlight, queued int64) error {
	if got := st.Delivered + inFlight + queued + st.Lost; got != st.Offered {
		return violation("conservation: offered %d != delivered %d + in flight %d + queued %d + lost %d",
			st.Offered, st.Delivered, inFlight, queued, st.Lost)
	}
	return nil
}

// drained reports whether nothing is left in the network or its queues.
// Drain is judged by this, not by deadlock.Analyze, which reports only
// buffer deadlocks and misses packets stalled by the recovery protocol.
func drained(inFlight, queued int64) bool { return inFlight+queued == 0 }

// diffStats compares two Stats field by field and names the first
// field that differs.
func diffStats(want, got network.Stats) error {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Errorf("Stats.%s: want %v, got %v", wv.Type().Field(i).Name,
				wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
	return nil
}

// bfsHops returns the hop distance from src to every node over alive
// routers and alive directed links (-1 when unreachable), computed
// independently of the routing package.
func bfsHops(t *topology.Topology, src geom.NodeID) []int {
	dist := make([]int, t.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if !t.RouterAlive(src) {
		return dist
	}
	dist[src] = 0
	queue := []geom.NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, d := range geom.LinkDirs {
			if !t.HasLink(n, d) {
				continue
			}
			nb := t.Neighbor(n, d)
			if nb == geom.InvalidNode || !t.RouterAlive(nb) || dist[nb] >= 0 {
				continue
			}
			dist[nb] = dist[n] + 1
			queue = append(queue, nb)
		}
	}
	return dist
}

// checkRoutes requires that, between every pair of alive routers, route
// returns a path exactly when one exists, and that the path walks alive
// links from src to dst in as many hops as a breadth-first search says.
func checkRoutes(t *topology.Topology, route func(src, dst geom.NodeID) (routing.Route, bool)) error {
	alive := t.AliveRouters()
	for _, src := range alive {
		dist := bfsHops(t, src)
		for _, dst := range alive {
			if dst == src {
				continue
			}
			r, ok := route(src, dst)
			if dist[dst] < 0 {
				if ok {
					return violation("route %v->%v returned, but no path exists", src, dst)
				}
				continue
			}
			if !ok {
				return violation("no route %v->%v, but BFS finds %d hops", src, dst, dist[dst])
			}
			cur := src
			for i, d := range r {
				if !t.HasLink(cur, d) {
					return violation("route %v->%v hop %d uses dead link %v->%v", src, dst, i, cur, d)
				}
				cur = t.Neighbor(cur, d)
				if !t.RouterAlive(cur) {
					return violation("route %v->%v hop %d enters dead router %v", src, dst, i, cur)
				}
			}
			if cur != dst {
				return violation("route %v->%v ends at %v", src, dst, cur)
			}
			if len(r) != dist[dst] {
				return violation("route %v->%v has %d hops, shortest is %d", src, dst, len(r), dist[dst])
			}
		}
	}
	return nil
}
