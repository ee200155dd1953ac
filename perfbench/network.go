package main

import (
	"fmt"
	"slices"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

const (
	// tier1 is the generator's tier-1 clique size; tier-1 ASes get the
	// lowest indices and are the ASes expanded to router level with iBGP
	// meshes.
	tier1 = 12
	// topoSeed fixes the synthetic topology. The network is the system's
	// configuration, held constant so that runs with different seeds
	// measure the same system: at 1,000 ASes generated topologies differ
	// by up to 10% in router count, which moves every per-packet and
	// per-event cost. The run seed draws everything that flows through the
	// network: packets, link loads, link events and simulated flows.
	topoSeed = 1
)

// network is the input the forward, react, congestion and churn workloads
// share: a synthetic topology, the full route table (every AS a
// destination), and a full MIFO deployment with every route installed.
type network struct {
	g     *topo.Graph
	tab   *bgp.Table
	dep   *core.Deployment
	dsts  []int
	links []topo.LinkRef // undirected, A < B
	// daemons is how many ASes run a MIFO daemon: the Daemon.RefreshAll
	// calls one Deployment.Refresh makes.
	daemons int
}

// buildNetwork generates the topology and builds everything on it,
// recording one span per layer call under parent.
func buildNetwork(n int, tr *tracer, parent int32) (*network, error) {
	sp := tr.start("topo.generate", parent)
	g, err := topo.Generate(topo.GenConfig{N: n, Seed: topoSeed})
	tr.end(sp, 1)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	dsts := make([]int, g.N())
	for i := range dsts {
		dsts[i] = i
	}

	sp = tr.start("bgp.table_build", parent)
	tab := bgp.NewTable(g, dsts, 0)
	tr.end(sp, len(dsts))

	expand := make([]int, min(tier1, g.N()))
	for i := range expand {
		expand[i] = i
	}
	sp = tr.start("core.deploy_build", parent)
	dep := core.NewDeployment(g, core.Config{ExpandASes: expand})
	tr.end(sp, 1)

	sp = tr.start("core.install", parent)
	dep.InstallDestinations(tab.All())
	tr.end(sp, len(dsts))

	var links []topo.LinkRef
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			if int(nb.AS) > v {
				links = append(links, topo.LinkRef{A: v, B: int(nb.AS)})
			}
		}
	}
	daemons := 0
	for v := 0; v < g.N(); v++ {
		if dep.Daemon(v) != nil {
			daemons++
		}
	}
	return &network{g: g, tab: tab, dep: dep, dsts: dsts, links: links, daemons: daemons}, nil
}

// onNetwork is the set-up of the workloads that run on the shared network.
type onNetwork struct {
	c   config
	net *network
}

func (w *onNetwork) setup(tr *tracer, parent int32) (err error) {
	w.net = nil // let the previous set-up's network be collected first
	w.net, err = buildNetwork(w.c.n, tr, parent)
	return err
}

// flowKey is the five-tuple of a packet from AS src to AS dst; port
// spreads packets of one AS pair over distinct flows.
func flowKey(src, dst int, port uint16) dataplane.FlowKey {
	return dataplane.FlowKey{
		SrcAddr: dataplane.PrefixAddr(int32(src)),
		DstAddr: dataplane.PrefixAddr(int32(dst)),
		SrcPort: port,
		DstPort: 443,
		Proto:   6,
	}
}

// packetTally counts packet outcomes as the closed-loop client sees them.
type packetTally struct {
	packets   int64
	delivered int64
	hops      int64
	deflected int64 // packets that took an alternative path at least once
	encap     int64 // packets IP-in-IP encapsulated to an iBGP peer
	drops     [4]int64
}

func (t *packetTally) add(net *dataplane.Network, res dataplane.Result) {
	t.packets++
	t.hops += int64(len(res.Hops))
	if res.Verdict == dataplane.VerdictDeliver {
		t.delivered++
	} else if int(res.Reason) < len(t.drops) {
		t.drops[res.Reason]++
	}
	if res.Deflections == 0 {
		return
	}
	t.deflected++
	for _, h := range res.Hops {
		if h.Deflected && net.Routers[h.Router].Ports[h.OutPort].Kind == dataplane.IBGP {
			t.encap++
			return
		}
	}
}

func (t *packetTally) failed() int64 { return t.packets - t.delivered }

// layers reports the tally's per-layer dataplane metrics.
func (t *packetTally) layers(out map[string]float64) {
	p := float64(t.packets)
	out["dataplane.hops_per_pkt"] = ratio(float64(t.hops), p)
	out["dataplane.deflect_share"] = ratio(float64(t.deflected), p)
	out["dataplane.encap_share"] = ratio(float64(t.encap), p)
	out["dataplane.drops.valleyfree"] = ratio(float64(t.drops[dataplane.DropValleyFree]), p)
	out["dataplane.drops.ttl"] = ratio(float64(t.drops[dataplane.DropTTL]), p)
	out["dataplane.drops.noroute"] = ratio(float64(t.drops[dataplane.DropNoRoute]), p)
}

// checkPath reports a violation when a packet from src was not delivered
// along the default AS path of table d.
func checkPath(net *dataplane.Network, d *bgp.Dest, src int, res dataplane.Result) error {
	if res.Verdict != dataplane.VerdictDeliver {
		return fmt.Errorf("packet %d->%d dropped (%v) at router %d", src, d.Dst(), res.Reason, res.At)
	}
	want := d.ASPath(src)
	got := res.ASPath(net)
	if !slices.EqualFunc(want, got, func(a int, b int32) bool { return a == int(b) }) {
		return fmt.Errorf("packet %d->%d took AS path %v, table says %v", src, d.Dst(), got, want)
	}
	return nil
}

// fibGenerations snapshots every router's published FIB generation.
func fibGenerations(net *dataplane.Network, buf []uint64) []uint64 {
	buf = buf[:0]
	for _, r := range net.Routers {
		buf = append(buf, r.FIB.Generation())
	}
	return buf
}

// advanced returns the share of routers whose FIB generation moved
// between two snapshots.
func advanced(before, after []uint64) float64 {
	n := 0
	for i := range before {
		if after[i] != before[i] {
			n++
		}
	}
	return ratio(float64(n), float64(len(before)))
}
