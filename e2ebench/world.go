package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clustertest"
	"repro/internal/gossip"
	"repro/internal/mpi"
	"repro/internal/rendezvous"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
)

// joinTimeout bounds one member's rendezvous gather. Loopback gathers
// take milliseconds; the bound only turns a wedged boot into an error.
const joinTimeout = 20 * time.Second

// member is one rank of the in-process world, wired the way cmd/elasticd
// wires a worker: a tcpnet endpoint with the daemon's default
// tcpnet.Config{} (full dial-retry budget), a rendezvous client, an mpi
// world communicator and a ULFM resilient communicator under
// ulfm.DefaultPolicy. Liveness is SWIM gossip with each member's verdict
// going to the hub, as in internal/clustertest.
type member struct {
	rank   int // rank in the gathered world
	proc   transport.ProcID
	ep     *tcpnet.Endpoint
	cl     *rendezvous.Client
	g      *gossip.Runtime
	r      *ulfm.ResilientComm
	timed  *timedEndpoint // the traced run's forwarder; nil untraced
	w      *world
	killed atomic.Bool
}

// world is one boot: the gossip-mode rendezvous hub plus its members.
type world struct {
	srv     *rendezvous.Server
	members []*member // indexed by gathered rank
	marks   marks
}

// marks stamps the control-plane milestones of the world's kill, written
// from gossip and rendezvous goroutines.
type marks struct {
	mu          sync.Mutex
	victim      transport.ProcID
	kill        time.Time
	detect      time.Time         // first gossip EvDead naming the victim
	declared    map[int]time.Time // gathered rank -> its OnPeerDown(victim)
	verdicts    int               // EvDead(victim) events reported to the hub
	falseDeaths int               // EvDead events naming a live member
}

func (k *marks) setKill(victim transport.ProcID, at time.Time) {
	k.mu.Lock()
	k.victim, k.kill = victim, at
	k.mu.Unlock()
}

func (k *marks) sawDead(proc transport.ProcID) {
	now := time.Now()
	k.mu.Lock()
	if proc != k.victim || k.kill.IsZero() {
		k.falseDeaths++
	} else {
		if k.detect.IsZero() {
			k.detect = now
		}
		k.verdicts++
	}
	k.mu.Unlock()
}

func (k *marks) sawDown(rank int, proc transport.ProcID) {
	now := time.Now()
	k.mu.Lock()
	if proc == k.victim && !k.kill.IsZero() {
		if _, ok := k.declared[rank]; !ok {
			k.declared[rank] = now
		}
	}
	k.mu.Unlock()
}

func (k *marks) String() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.kill.IsZero() {
		return "no kill"
	}
	s := fmt.Sprintf("detected after %v; %d verdicts, %d false deaths; declared down at",
		k.detect.Sub(k.kill), k.verdicts, k.falseDeaths)
	for r, t := range k.declared {
		s += fmt.Sprintf(" rank %d after %v,", r, t.Sub(k.kill))
	}
	return s
}

// boot gathers a world of n ranks on loopback. traced wraps every
// endpoint in a timedEndpoint before mpi.Attach; sendDelay (tests only)
// is added to every Send the forwarder passes on.
func boot(n int, seed int64, traced bool, sendDelay time.Duration) (*world, error) {
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{World: n, Gossip: true})
	if err != nil {
		return nil, fmt.Errorf("rendezvous: %w", err)
	}
	w := &world{srv: srv, marks: marks{victim: -1, declared: map[int]time.Time{}}}
	type joined struct {
		m   *member
		err error
	}
	ch := make(chan joined, n)
	for i := 0; i < n; i++ {
		go func() {
			m, err := w.join(n, seed, traced, sendDelay)
			ch <- joined{m, err}
		}()
	}
	w.members = make([]*member, n)
	var firstErr error
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			if firstErr == nil {
				firstErr = j.err
			}
			continue
		}
		w.members[j.m.rank] = j.m
	}
	if firstErr != nil {
		w.close()
		return nil, fmt.Errorf("boot: %w", firstErr)
	}
	return w, nil
}

func (w *world) join(n int, seed int64, traced bool, sendDelay time.Duration) (*member, error) {
	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	uconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		ep.Close()
		return nil, err
	}
	cl, err := rendezvous.JoinWith(w.srv.Addr(), rendezvous.JoinOptions{
		SelfAddr:   ep.Addr(),
		GossipAddr: uconn.LocalAddr().String(),
		Timeout:    joinTimeout,
	})
	if err != nil {
		uconn.Close()
		ep.Close()
		return nil, err
	}
	m := &member{rank: cl.Rank(), proc: cl.Proc(), ep: ep, cl: cl, w: w}
	ep.Start(m.proc, cl.Peers())
	gcfg := clustertest.DetectorDefaults(n)
	gcfg.Seed = seed
	m.g = gossip.NewRuntimeOn(uconn, m.proc, gossip.RuntimeConfig{Node: gcfg, OnEvent: m.onGossip})
	cl.StartNotify(rendezvous.Notifications{
		// The declaration is stamped before MarkDead: MarkDead waits for
		// the peer's send lock, which a Send sitting out tcpnet's
		// dial-retry backoff holds.
		OnPeerDown: func(dead transport.ProcID) {
			w.marks.sawDown(m.rank, dead)
			m.g.Remove(dead)
			ep.MarkDead(dead)
		},
	})
	m.g.Bootstrap(cl.GossipPeers())

	var tep transport.Endpoint = ep
	if traced {
		m.timed = &timedEndpoint{Endpoint: ep, delay: sendDelay}
		tep = m.timed
	}
	comm, err := mpi.World(mpi.Attach(tep), cl.Procs())
	if err != nil {
		m.die()
		return nil, err
	}
	m.r = ulfm.New(comm, nil, ulfm.DefaultPolicy())
	return m, nil
}

// onGossip reports every local SWIM death declaration to the hub, which
// republishes it as the peer-down delta every survivor applies, and which
// first doubts an accused member whose hub link is still up, so a false
// verdict against a live member is dismissed there.
//
// Unlike clustertest, no majority gate holds a verdict back. The gate
// guards against a partitioned minority, and there are no partitions
// here. Under this CPU load, though, SWIM now and then declares a live
// member dead, and dead is absorbing. A member holding such an entry
// fails the gate for the real victim. When every survivor fails it, the
// victim is never declared and the survivors wait for it forever.
// false_deaths in the cycle records counts the false declarations.
func (m *member) onGossip(ev gossip.Event) {
	if ev.Kind != gossip.EvDead {
		return
	}
	m.w.marks.sawDead(ev.Proc)
	// It fails only once this member's own hub link is closed, when it is
	// dying or tearing down and has nothing left to report.
	_ = m.cl.ReportDead(ev.Proc)
}

// kill stamps the kill time and kills the member from outside its
// goroutine, which sees its operations fail from then on.
func (m *member) kill() {
	m.killed.Store(true)
	m.w.marks.setKill(m.proc, time.Now())
	m.die()
}

// die is the kill -9 equivalent of clustertest.Worker.Die and elasticd's
// chaos OnKill: the rendezvous link drops without a leave, gossip goes
// silent and the transport shuts down.
func (m *member) die() {
	m.cl.Abandon()
	m.g.Close()
	m.ep.Close()
}

// close tears the world down: every member leaves (a no-op for one that
// already died) and the hub stops.
func (w *world) close() {
	for _, m := range w.members {
		if m == nil {
			continue
		}
		m.cl.Close()
		m.g.Close()
		m.ep.Close()
	}
	w.srv.Close()
}
