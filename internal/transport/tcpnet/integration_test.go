package tcpnet_test

// The loopback integration test: a rendezvous service plus four workers,
// each owning a real TCP endpoint in this one process. The world runs an
// allreduce over real sockets, one worker is killed abruptly (connection
// dropped, no leave), the heartbeat detector declares it, and the
// survivors run the ULFM revoke/agree/shrink/retry pipeline to finish the
// next allreduce over the shrunken world — the same end-to-end path a
// multi-process deployment of cmd/elasticd exercises.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/ulfm"
	"repro/internal/vtime"
)

// syncBuf guards the journal: the rendezvous sweeper writes while the
// test reads.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type workerResult struct {
	proc  transport.ProcID
	step0 float64 // allreduce result with the full world
	step1 float64 // allreduce result after the kill (survivors only)
	size1 int     // communicator size after recovery
	// repair is the time from this survivor's MarkDead of the victim to
	// the return of its repaired step-1 allreduce (shipped-budget case).
	repair time.Duration
	err    error
}

func runWorker(srvAddr string, world int, results chan<- workerResult) {
	var res workerResult
	defer func() { results <- res }()
	fail := func(err error) { res.err = err }

	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{
		DialRetries: 4,
		DialBackoff: 20 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		fail(err)
		return
	}
	defer ep.Close()

	cl, err := rendezvous.Join(srvAddr, ep.Addr(), 20*time.Second)
	if err != nil {
		fail(err)
		return
	}
	ep.Start(cl.Proc(), cl.Peers())
	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })
	res.proc = cl.Proc()
	victim := cl.Rank() == world-1

	p := mpi.Attach(ep)
	comm, err := mpi.World(p, cl.Procs())
	if err != nil {
		fail(err)
		return
	}
	r := ulfm.New(comm, nil, ulfm.DefaultPolicy())

	// Step 0: every worker contributes proc+1; full world must agree.
	data := []float64{float64(cl.Proc()) + 1}
	if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
		fail(err)
		return
	}
	res.step0 = data[0]

	if victim {
		// Die abruptly: drop the rendezvous connection without a leave
		// (so only missed heartbeats reveal the death) and shut the
		// transport down. Survivors block in step 1 until the detector's
		// declaration arrives and recovery runs.
		//lint:ignore sleepytest chaos choreography: the victim lingers so peers drain step-0 frames, then dies silently
		time.Sleep(50 * time.Millisecond)
		cl.Abandon()
		ep.Close()
		return
	}
	defer cl.Close()

	// Step 1: survivors contribute again; the collective first fails
	// against the dead member, repairs, and retries over the survivors.
	data = []float64{float64(cl.Proc()) + 1}
	if err := ulfm.Allreduce(r, data, mpi.OpSum); err != nil {
		fail(err)
		return
	}
	res.step1 = data[0]
	res.size1 = r.Size()
}

// runPipelinedWorker is runWorker's heavyweight sibling: the allreduces
// are chunk-pipelined over a tensor whose length is deliberately not a
// multiple of world*K, and the victim dies MID-collective — its partial
// chunks are already sitting in the survivors' receive queues (in pooled
// frame buffers) when recovery runs. The retry over the shrunken world
// must still produce the exact survivors-only sum at every element,
// proving neither stale chunks nor recycled buffers leak into it.
func runPipelinedWorker(srvAddr string, world, elems int, results chan<- workerResult) {
	var res workerResult
	defer func() { results <- res }()
	fail := func(err error) { res.err = err }

	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{
		DialRetries: 4,
		DialBackoff: 20 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		fail(err)
		return
	}
	defer ep.Close()

	cl, err := rendezvous.Join(srvAddr, ep.Addr(), 20*time.Second)
	if err != nil {
		fail(err)
		return
	}
	ep.Start(cl.Proc(), cl.Peers())
	cl.Start(func(dead transport.ProcID) { ep.MarkDead(dead) })
	res.proc = cl.Proc()
	victim := cl.Rank() == world-1

	p := mpi.Attach(ep)
	comm, err := mpi.World(p, cl.Procs())
	if err != nil {
		fail(err)
		return
	}
	r := ulfm.New(comm, nil, ulfm.DefaultPolicy())

	mkData := func() []float64 {
		data := make([]float64, elems)
		for i := range data {
			data[i] = float64(cl.Proc()) + 1
		}
		return data
	}

	// Step 0: full-world pipelined allreduce. The chunk count is pinned
	// explicitly (SPMD: the victim's doomed step-1 call below must split
	// segments identically) and chosen so elems is not a multiple of
	// world*K — the uneven-chunk case this test exists to exercise.
	pipelined := mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Chunks: mpi.DefaultPipelineChunks}
	data := mkData()
	if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, pipelined); err != nil {
		fail(err)
		return
	}
	res.step0 = data[0]
	for i := range data {
		if data[i] != res.step0 {
			fail(fmt.Errorf("step0 element %d = %v, want %v", i, data[i], res.step0))
			return
		}
	}

	if victim {
		// Start step 1, then die mid-collective: the goroutine pushes the
		// first chunks of the reduce-scatter into the survivors' queues
		// before the endpoint drops. No leave message — only missed
		// heartbeats reveal the death.
		go func() {
			d := mkData()
			_ = mpi.AllreduceOpts(r.Comm(), d, mpi.OpSum, pipelined)
		}()
		//lint:ignore sleepytest chaos choreography: the death must land mid-collective, after the first chunks ship but before the ring completes
		time.Sleep(50 * time.Millisecond)
		cl.Abandon()
		ep.Close()
		return
	}
	defer cl.Close()

	// Let the victim's stale chunks land before step 1 consumes them.
	//lint:ignore sleepytest the stale chunks arrive asynchronously from a peer that is now dead; nothing observable distinguishes "all arrived" from "still in flight"
	time.Sleep(150 * time.Millisecond)

	data = mkData()
	if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, pipelined); err != nil {
		fail(err)
		return
	}
	res.step1 = data[0]
	for i := range data {
		if data[i] != res.step1 {
			fail(fmt.Errorf("step1 element %d = %v, want %v", i, data[i], res.step1))
			return
		}
	}
	res.size1 = r.Size()
}

// TestLoopbackPipelinedSurvivesMidCollectiveKill kills a worker while a
// chunk-pipelined allreduce is in flight and checks that the ULFM
// revoke/agree/shrink/retry pipeline completes with the exact
// survivors-only reduction on a tensor sized to exercise uneven chunks.
func TestLoopbackPipelinedSurvivesMidCollectiveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const world = 4
	const elems = 64<<10 + 7 // not a multiple of world * DefaultPipelineChunks

	var journal syncBuf
	rec := trace.New(&journal)
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         500 * time.Millisecond,
		Trace:             rec,
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	results := make(chan workerResult, world)
	for i := 0; i < world; i++ {
		go runPipelinedWorker(srv.Addr(), world, elems, results)
	}

	var got []workerResult
	deadline := time.After(30 * time.Second)
	for len(got) < world {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", len(got), world, journal.String())
		}
	}

	const wantStep0 = 1 + 2 + 3 + 4
	const wantStep1 = 1 + 2 + 3
	var survivors int
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("worker proc %d: %v", r.proc, r.err)
		}
		if r.step0 != wantStep0 {
			t.Errorf("proc %d step0 = %v, want %v", r.proc, r.step0, wantStep0)
		}
		if r.proc == world-1 {
			continue
		}
		survivors++
		if r.step1 != wantStep1 {
			t.Errorf("proc %d step1 = %v, want %v", r.proc, r.step1, wantStep1)
		}
		if r.size1 != world-1 {
			t.Errorf("proc %d post-recovery size = %d, want %d", r.proc, r.size1, world-1)
		}
	}
	if survivors != world-1 {
		t.Fatalf("%d survivors reported, want %d", survivors, world-1)
	}
}

func TestLoopbackWorldSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const world = 4

	var journal syncBuf
	rec := trace.New(&journal)
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         500 * time.Millisecond,
		Trace:             rec,
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	results := make(chan workerResult, world)
	for i := 0; i < world; i++ {
		go runWorker(srv.Addr(), world, results)
	}

	var got []workerResult
	deadline := time.After(30 * time.Second)
	for len(got) < world {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", len(got), world, journal.String())
		}
	}

	const wantStep0 = 1 + 2 + 3 + 4 // contributions are proc+1, procs 0..3
	const wantStep1 = 1 + 2 + 3     // survivors are procs 0..2
	var survivors int
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("worker proc %d: %v", r.proc, r.err)
		}
		if r.step0 != wantStep0 {
			t.Errorf("proc %d step0 = %v, want %v", r.proc, r.step0, wantStep0)
		}
		if r.proc == world-1 {
			continue // the victim only ran step 0
		}
		survivors++
		if r.step1 != wantStep1 {
			t.Errorf("proc %d step1 = %v, want %v", r.proc, r.step1, wantStep1)
		}
		if r.size1 != world-1 {
			t.Errorf("proc %d post-recovery size = %d, want %d", r.proc, r.size1, world-1)
		}
	}
	if survivors != world-1 {
		t.Fatalf("%d survivors reported, want %d", survivors, world-1)
	}

	// The journal must show the gather and the heartbeat declaration.
	s := journal.String()
	if n := strings.Count(s, `"member_join"`); n != world {
		t.Errorf("journal has %d member_join events, want %d:\n%s", n, world, s)
	}
	if !strings.Contains(s, `"hb_dead"`) {
		t.Errorf("journal missing hb_dead declaration:\n%s", s)
	}
}

// runShippedBudgetWorker kills the victim while the survivors' step-1
// pipelined allreduce is mid-ring, on the retry budget elasticd ships
// (tcpnet.Config{}: 50 ms backoff doubling over 5 retries). The victim
// stops heartbeating, starts step 1 (its first chunks land in the
// survivors' queues), and closes its transport once the detector has
// suspected it; only then do the survivors start step 1. The ring
// neighbour sending to the victim finds a reset connection and a refused
// redial, and sits in the dial-retry backoff until the declaration
// cancels it. Each survivor records how long its repaired allreduce
// took to return after its MarkDead.
func runShippedBudgetWorker(srvAddr string, world, elems int, suspected func() bool, gone chan struct{}, results chan<- workerResult) {
	var res workerResult
	defer func() { results <- res }()
	fail := func(err error) { res.err = err }

	ep, err := tcpnet.Listen("127.0.0.1:0", tcpnet.Config{})
	if err != nil {
		fail(err)
		return
	}
	defer ep.Close()

	cl, err := rendezvous.Join(srvAddr, ep.Addr(), 20*time.Second)
	if err != nil {
		fail(err)
		return
	}
	ep.Start(cl.Proc(), cl.Peers())
	var markedAt atomic.Int64 // UnixNano, stamped before MarkDead runs
	cl.Start(func(dead transport.ProcID) {
		markedAt.CompareAndSwap(0, time.Now().UnixNano())
		ep.MarkDead(dead)
	})
	res.proc = cl.Proc()
	victim := cl.Rank() == world-1

	p := mpi.Attach(ep)
	comm, err := mpi.World(p, cl.Procs())
	if err != nil {
		fail(err)
		return
	}
	r := ulfm.New(comm, nil, ulfm.DefaultPolicy())
	pipelined := mpi.AllreduceOptions{Algo: mpi.AlgoPipelinedRing, Chunks: mpi.DefaultPipelineChunks}
	mkData := func() []float64 {
		data := make([]float64, elems)
		for i := range data {
			data[i] = float64(cl.Proc()) + 1
		}
		return data
	}

	data := mkData()
	if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, pipelined); err != nil {
		fail(err)
		return
	}
	res.step0 = data[0]

	if victim {
		cl.Abandon()
		go func() {
			_ = mpi.AllreduceOpts(r.Comm(), mkData(), mpi.OpSum, pipelined)
		}()
		if !vtime.WaitUntil(10*time.Second, suspected) {
			fail(fmt.Errorf("victim never suspected"))
		}
		ep.Close()
		close(gone)
		return
	}
	defer cl.Close()

	select {
	case <-gone:
	case <-time.After(20 * time.Second):
		fail(fmt.Errorf("victim never died"))
		return
	}
	data = mkData()
	if err := ulfm.AllreduceOpts(r, data, mpi.OpSum, pipelined); err != nil {
		fail(err)
		return
	}
	done := time.Now()
	res.step1 = data[0]
	for i := range data {
		if data[i] != res.step1 {
			fail(fmt.Errorf("step1 element %d = %v, want %v", i, data[i], res.step1))
			return
		}
	}
	res.size1 = r.Size()
	if at := markedAt.Load(); at != 0 {
		res.repair = done.Sub(time.Unix(0, at))
	} else {
		fail(fmt.Errorf("step 1 returned without a declaration of the victim"))
	}
}

// TestLoopbackShippedBudgetRecoversAtDeclaration checks that on the
// shipped retry budget a survivor stuck in the dial-retry backoff toward
// the dead member is released by the declaration: every survivor's
// repaired allreduce returns within 1 s of its MarkDead, where waiting
// out the 1.55 s backoff would take longer.
func TestLoopbackShippedBudgetRecoversAtDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const world = 4
	const elems = 64<<10 + 7

	var journal syncBuf
	srv, err := rendezvous.ListenAndServe("127.0.0.1:0", rendezvous.Config{
		World:             world,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      200 * time.Millisecond,
		DeadAfter:         500 * time.Millisecond,
		Trace:             trace.New(&journal),
	})
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	defer srv.Close()

	suspected := func() bool { return strings.Contains(journal.String(), `"hb_suspect"`) }
	gone := make(chan struct{})
	results := make(chan workerResult, world)
	for i := 0; i < world; i++ {
		go runShippedBudgetWorker(srv.Addr(), world, elems, suspected, gone, results)
	}

	var got []workerResult
	deadline := time.After(30 * time.Second)
	for len(got) < world {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("only %d/%d workers finished; journal:\n%s", len(got), world, journal.String())
		}
	}

	const wantStep0 = 1 + 2 + 3 + 4
	const wantStep1 = 1 + 2 + 3
	var survivors int
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("worker proc %d: %v", r.proc, r.err)
		}
		if r.step0 != wantStep0 {
			t.Errorf("proc %d step0 = %v, want %v", r.proc, r.step0, wantStep0)
		}
		if r.proc == world-1 {
			continue
		}
		survivors++
		t.Logf("proc %d: repaired allreduce returned %v after MarkDead", r.proc, r.repair)
		if r.step1 != wantStep1 || r.size1 != world-1 {
			t.Errorf("proc %d step1 = %v over size %d, want %v over %d", r.proc, r.step1, r.size1, wantStep1, world-1)
		}
		if r.repair > time.Second {
			t.Errorf("proc %d: repaired allreduce returned %v after MarkDead, want <= 1s", r.proc, r.repair)
		}
	}
	if survivors != world-1 {
		t.Fatalf("%d survivors reported, want %d", survivors, world-1)
	}
}
