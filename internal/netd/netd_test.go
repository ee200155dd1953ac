package netd

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/topo"
)

// fig2aGraph: AS 0 is a customer of 1, 2, 3, which peer in a triangle.
func fig2aGraph(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.NewBuilder(4).
		AddPC(1, 0).AddPC(2, 0).AddPC(3, 0).
		AddPeer(1, 2).AddPeer(2, 3).AddPeer(1, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func deployFig2a(t *testing.T) (*core.Deployment, *Fabric) {
	t.Helper()
	g := fig2aGraph(t)
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	f, err := NewFabric(dep.Net)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	return dep, f
}

func awaitDelivery(t *testing.T, f *Fabric, timeout time.Duration) (Delivery, bool) {
	t.Helper()
	select {
	case d := <-f.Deliveries():
		return d, true
	case <-time.After(timeout):
		return Delivery{}, false
	}
}

// Destination ids ride the wire as 198.18.0.0/16 addresses: a fabric
// whose AS ids do not fit would alias AS 65540 onto AS 4, so NewFabric
// must refuse it.
func TestNewFabricRejectsWideASIDs(t *testing.T) {
	cases := []struct {
		as int32
		ok bool
	}{
		{0, true},
		{65535, true},
		{65536, false},
		{65540, false},
		{-1, false},
	}
	for _, c := range cases {
		n := dataplane.NewNetwork()
		n.AddRouter(0)
		n.AddRouter(c.as)
		f, err := NewFabric(n)
		if err == nil {
			f.Start()
			f.Stop()
		}
		if (err == nil) != c.ok {
			t.Errorf("AS %d: NewFabric err = %v, want ok=%v", c.as, err, c.ok)
		}
	}
}

func TestUDPDefaultDelivery(t *testing.T) {
	dep, f := deployFig2a(t)
	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0), DstPort: 80, Proto: 6},
		Dst:  0,
	}
	f.Inject(p, dep.Routers(1)[0].ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("packet never delivered over UDP")
	}
	if dep.Net.Router(d.At).AS != 0 {
		t.Fatalf("delivered at AS %d, want 0", dep.Net.Router(d.At).AS)
	}
	if d.Packet.Flow.SrcAddr != 1 || d.Packet.Dst != 0 {
		t.Fatalf("payload mangled: %+v", d.Packet)
	}
}

func TestUDPDeflectionAndTagCheck(t *testing.T) {
	dep, f := deployFig2a(t)
	// Congest AS 1's default: its daemon installs the peer alternative.
	if err := dep.SetLinkLoad(1, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	p := &dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 9, DstAddr: dataplane.PrefixAddr(0), DstPort: 80, Proto: 6},
		Dst:  0,
	}
	f.Inject(p, dep.Routers(1)[0].ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("deflected packet never delivered")
	}
	if dep.Net.Router(d.At).AS != 0 {
		t.Fatalf("delivered at AS %d, want 0", dep.Net.Router(d.At).AS)
	}
	if got := f.StatsOf(dep.Routers(1)[0].ID).Deflected; got != 1 {
		t.Errorf("deflections at AS 1 = %d, want 1", got)
	}

	// Worst case: every default congested. The tag-check must drop the
	// packet at the second AS — across real sockets.
	for as := 1; as <= 3; as++ {
		dep.SetLinkLoad(as, 0, 1e9)
	}
	dep.Refresh()
	before := f.TotalStats()
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 10, DstAddr: dataplane.PrefixAddr(0), DstPort: 81, Proto: 6},
		Dst:  0,
	}, dep.Routers(1)[0].ID)
	waitStats(t, f, func(s Stats) bool { return s.DropValleyFree > before.DropValleyFree })
	after := f.TotalStats()
	if after.DropTTL != before.DropTTL {
		t.Errorf("TTL drops rose from %d to %d: a loop happened", before.DropTTL, after.DropTTL)
	}
}

func TestUDPEncapAcrossIBGP(t *testing.T) {
	// Expanded AS 0 (Fig. 2(c)): the deflection crosses iBGP with real
	// IP-in-IP datagrams between the two border routers' sockets.
	b := topo.NewBuilder(5)
	b.AddPC(1, 0).AddPC(2, 0).AddPC(3, 0)
	b.AddPC(1, 4).AddPC(2, 4).AddPC(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{ExpandASes: []int{0}})
	dep.InstallDestination(bgp.Compute(g, 4))
	if err := dep.SetLinkLoad(0, 1, 1e9); err != nil {
		t.Fatal(err)
	}
	dep.Refresh()
	f, err := NewFabric(dep.Net)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	egress, _, err := dep.EgressPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 5, DstAddr: dataplane.PrefixAddr(4), DstPort: 80, Proto: 6},
		Dst:  4,
	}, egress.ID)
	d, ok := awaitDelivery(t, f, 2*time.Second)
	if !ok {
		t.Fatal("encapsulated packet never delivered")
	}
	if dep.Net.Router(d.At).AS != 4 {
		t.Fatalf("delivered at AS %d, want 4", dep.Net.Router(d.At).AS)
	}
	if d.Packet.Encap {
		t.Error("packet still encapsulated at delivery")
	}
	if got := f.TotalStats().Deflected; got < 2 {
		t.Errorf("deflections = %d, want encap hand-off plus exit", got)
	}
}

func TestUDPLoopFreedomUnderStress(t *testing.T) {
	g, err := topo.Generate(topo.GenConfig{N: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dep := core.NewDeployment(g, core.Config{})
	dep.InstallDestination(bgp.Compute(g, 0))
	// Congest a third of all links.
	for v := 0; v < g.N(); v++ {
		for j, nb := range g.Neighbors(v) {
			if (v+j)%3 == 0 {
				dep.SetLinkLoad(v, int(nb.AS), 1e9)
			}
		}
	}
	dep.Refresh()
	f, err := NewFabric(dep.Net)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	const packets = 300
	for i := 0; i < packets; i++ {
		if i%16 == 15 {
			// Pace slightly: a full-rate burst can overrun loopback UDP
			// buffers, and a lost datagram would stall the tally below.
			time.Sleep(time.Millisecond)
		}
		src := 1 + i%(g.N()-1)
		f.Inject(&dataplane.Packet{
			Flow: dataplane.FlowKey{SrcAddr: uint32(src), DstAddr: dataplane.PrefixAddr(0), SrcPort: uint16(i), Proto: 6},
			Dst:  0,
		}, dep.Routers(src)[0].ID)
	}
	// Every packet must terminate: delivered or dropped by the tag-check,
	// never by TTL (that would be a loop).
	waitStats(t, f, func(s Stats) bool {
		return s.Delivered+s.DropValleyFree+s.DropNoRoute >= packets
	})
	s := f.TotalStats()
	if s.DropTTL != 0 {
		t.Fatalf("%d packets looped over UDP", s.DropTTL)
	}
	if s.Delivered == 0 {
		t.Fatal("nothing was delivered")
	}
	if s.ParseErrors != 0 {
		t.Fatalf("%d datagrams failed to parse", s.ParseErrors)
	}
}

// Garbage datagrams from outside must be counted and ignored, never crash
// a node or corrupt forwarding.
func TestUDPGarbageHardening(t *testing.T) {
	dep, f := deployFig2a(t)
	conn, err := net.Dial("udp", f.Addr(dep.Routers(1)[0].ID).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloads := [][]byte{
		{},
		{0x00},
		[]byte("not an ip packet at all, definitely"),
		bytes.Repeat([]byte{0x45}, 64),
	}
	for _, p := range payloads {
		if len(p) == 0 {
			continue // zero-length UDP writes are dropped by the stack
		}
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, f, func(s Stats) bool { return s.ParseErrors >= 3 })
	// The node still forwards fine afterwards.
	f.Inject(&dataplane.Packet{
		Flow: dataplane.FlowKey{SrcAddr: 1, DstAddr: dataplane.PrefixAddr(0), Proto: 6},
		Dst:  0,
	}, dep.Routers(1)[0].ID)
	if _, ok := awaitDelivery(t, f, 2*time.Second); !ok {
		t.Fatal("node stopped forwarding after garbage input")
	}
}

func waitStats(t *testing.T, f *Fabric, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(f.TotalStats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stats condition not reached; totals: %+v", f.TotalStats())
}
