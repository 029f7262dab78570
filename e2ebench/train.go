package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimizer"
	"repro/internal/tensor"
	"repro/internal/ulfm"
)

// worldSize is the gathered world of every boot: the smallest world in
// which a ring has several hops and a kill leaves a non-trivial world.
const worldSize = 4

// datasetSize bounds the synthetic sample index space. Samples are
// generated from their index, so the size costs nothing; training
// indices count up from 0 and the evaluation set sits at the top.
const datasetSize = 1 << 24

// classes is the label count of every workload's dataset.
const classes = 10

// The shape of a run, the same on every workload. The first boot trains
// warmSteps steps, whose result is checked against the single-worker
// baseline, then a fault-free window of windowShare of --seconds; the
// kill lands at the step after the window closes. Every later boot is a
// kill cycle: the kill step is drawn from [killStepLo, killStepHi), and
// the survivors train postSteps more steps. Every kill lands as the
// victim starts its kill step, the way elasticd's kill-at-round chaos
// preset kills a worker entering its round.
const (
	warmSteps   = 4
	windowShare = 0.5
	killStepLo  = 1
	killStepHi  = 3
	postSteps   = 1
)

// workload is one named benchmark input. WORKLOADS.md records why each
// exists and which layers it stresses and bypasses.
type workload struct {
	name     string
	sizes    []int // MLP widths, input first
	batch    int   // samples per rank per step
	codec    mpi.WireCodec
	lr       float64
	momentum float64
}

var workloads = []*workload{
	{
		name: "dp-large", sizes: []int{256, 2048, 2048, 10}, batch: 1,
		codec: mpi.CodecRaw, lr: 0.002, momentum: 0.9,
	},
	{
		name: "dp-fp16", sizes: []int{256, 2048, 2048, 10}, batch: 1,
		codec: mpi.CodecFP16, lr: 0.002, momentum: 0.9,
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// wireBytes is the size of one step's allreduce payload: every parameter
// as a float32 gradient plus the stop flag.
func (wl *workload) wireBytes() int64 {
	n := 1
	for l := 0; l+1 < len(wl.sizes); l++ {
		n += wl.sizes[l]*wl.sizes[l+1] + wl.sizes[l+1]
	}
	return 4 * int64(n)
}

// opts is the data-plane configuration: elasticd's defaults (auto
// schedule) with the workload's codec.
func (wl *workload) opts() mpi.AllreduceOptions {
	return mpi.AllreduceOptions{Codec: wl.codec}
}

// cycle is one boot of the world: set-up, steady steps, one kill, the
// recovery and the survivors' remaining steps.
type cycle struct {
	wl       *workload
	traced   bool
	delay    time.Duration // per-Send delay injected by tests
	dataSeed int64
	initSeed int64
	gossSeed int64
	victim   int           // gathered rank killed
	killStep int           // -1: kill at the step after the window's stop flag
	reached  chan struct{} // closed by the victim as it starts its kill step
	warm     int           // first steady step
	window   time.Duration // >0: rank 0 raises the stop flag after this
	snapshot bool          // rank 0 keeps its parameters after warm steps
	data     *data.Synthetic
}

// rankRun is what one rank's goroutine reports about its cycle.
type rankRun struct {
	end       int   // the step count the rank ran to
	done      []int // completed step indices, in order
	lossGrads int   // LossAndGrad calls
	firstDone time.Time
	stepMs    []float64 // steady step wall times
	err       error

	// The step whose allreduce returned on a smaller world.
	shrinkStep int
	arReturn   time.Time // when that allreduce returned
	shrinkEnd  time.Time // when that step completed

	size  int
	model *models.MLP

	// Rank 0 only.
	snap                tensor.Vector // parameters after warm steps
	winStart, winEnd    time.Time
	winSteps            int
	planChanges         int
	allocBytes, gcCount uint64 // runtime.MemStats deltas over the window

	lay layers
}

// newCycle draws the seeded choices of boot number index. Victims rotate
// through the ranks from a seeded first victim, so every run kills each
// rank about equally often: which rank dies largely decides whether a
// survivor's Send stalls, and a run's median recovery must not hinge on
// how often it happened to kill rank 0.
func newCycle(wl *workload, rng *rand.Rand, index, firstVictim int, seconds float64) *cycle {
	c := &cycle{
		wl:       wl,
		dataSeed: rng.Int63(),
		initSeed: rng.Int63(),
		gossSeed: rng.Int63(),
		victim:   (firstVictim + index) % worldSize,
		reached:  make(chan struct{}),
	}
	if index == 0 {
		c.killStep = -1
		c.warm = warmSteps
		c.window = time.Duration(windowShare * seconds * float64(time.Second))
		c.snapshot = true
	} else {
		c.killStep = killStepLo + rng.Intn(killStepHi-killStepLo)
		c.warm = c.killStep // kill cycles keep no steady steps
	}
	c.data = data.NewSynthetic(datasetSize, wl.sizes[0], classes, c.dataSeed)
	return c
}

// slice returns the sample indices of one rank's share of a global batch
// that starts at base.
func slice(base, rank, b int) []int {
	idx := make([]int, b)
	for i := range idx {
		idx[i] = base + rank*b + i
	}
	return idx
}

// run boots the world, trains every rank in its own goroutine in a closed
// loop and tears the world down.
func (c *cycle) run(limit time.Duration) (setup time.Time, w *world, runs []*rankRun, err error) {
	setup = time.Now()
	w, err = boot(worldSize, c.gossSeed, c.traced, c.delay)
	if err != nil {
		return setup, nil, nil, err
	}
	runs = make([]*rankRun, worldSize)
	var wg sync.WaitGroup
	for i, m := range w.members {
		runs[i] = &rankRun{shrinkStep: -1}
		wg.Add(1)
		go func(m *member, out *rankRun) {
			defer wg.Done()
			c.train(m, out)
		}(m, runs[i])
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	// A wedged rank cannot be stopped from outside, and tearing the world
	// down would wait on it; on timeout the caller exits the process.
	deadline := time.After(limit)
	select {
	case <-c.reached:
		w.members[c.victim].kill()
	case <-finished: // a rank failed before the kill
	case <-deadline:
		return setup, w, runs, fmt.Errorf("cycle did not reach its kill within %v", limit)
	}
	select {
	case <-finished:
	case <-deadline:
		return setup, w, runs, fmt.Errorf("cycle did not finish within %v after killing rank %d at step %d; %s",
			limit, c.victim, c.killStep, w.marks.String())
	}
	w.close()
	return setup, w, runs, nil
}

// train is one rank's closed loop: each step starts when the previous one
// returns. A step is batch -> loss and gradient -> flatten -> resilient
// allreduce -> unflatten -> optimizer. The last element of the flattened
// gradient carries rank 0's stop flag, so every rank learns at the same
// step that a time-bounded window has closed.
func (c *cycle) train(m *member, out *rankRun) {
	wl := c.wl
	model := models.NewMLP(wl.sizes, c.initSeed)
	opt := optimizer.NewSGD(wl.lr, wl.momentum)
	params := model.Params()
	grads := model.ZeroGrads()
	stop := tensor.New(1)
	parts := append(grads[:len(grads):len(grads)], stop)
	opts := wl.opts()
	sw := stopwatch{on: c.traced}
	lead := m.rank == 0
	var (
		lastPlan mpi.AllreducePlan
		havePlan bool
		mem      runtime.MemStats
		alloc0   uint64
		gc0      uint32
	)

	killAt := c.killStep
	base := 0
	defer func() { out.end = killAt + postSteps + 1 }()
	for step := 0; killAt < 0 || step <= killAt+postSteps; step++ {
		if step == killAt && m.rank == c.victim {
			close(c.reached)
		}
		steady := step >= c.warm && (killAt < 0 || step < killAt)
		size, rank := m.r.Size(), m.r.Rank()
		if c.traced && lead && steady {
			p := mpi.PlanAllreduce(wl.wireBytes(), size, opts)
			if havePlan && p != lastPlan {
				out.planChanges++
			}
			lastPlan, havePlan = p, true
		}
		var before timedEndpoint
		if m.timed != nil {
			before = *m.timed
		}

		var st layers
		t0 := time.Now()
		sw.start()
		xs, ys := c.data.Batch(slice(base, rank, wl.batch))
		sw.lap(&st.batch)
		model.LossAndGrad(xs, ys, grads)
		out.lossGrads++
		sw.lap(&st.lossGrad)
		stop[0] = 0
		if c.window > 0 && killAt < 0 && lead && step >= c.warm && time.Since(out.winStart) >= c.window {
			stop[0] = 1
		}
		flat := tensor.Concat(parts)
		sw.lap(&st.flatten)
		err := ulfm.AllreduceOpts(m.r, flat, mpi.OpSum, opts)
		arEnd := time.Now()
		sw.lap(&st.allreduce)
		if err != nil {
			if !m.killed.Load() { // the victim's own aborted step is expected
				out.err = fmt.Errorf("rank %d step %d: %w", m.rank, step, err)
			}
			return
		}
		g := flat[:len(flat)-1]
		g.Scale(1 / float32(m.r.Size()))
		tensor.SplitLike(g, grads)
		sw.lap(&st.flatten)
		opt.Step(params, grads)
		sw.lap(&st.opt)
		t1 := time.Now()

		out.done = append(out.done, step)
		base += size * wl.batch
		if step == 0 {
			out.firstDone = t1
		}
		if m.r.Size() != size {
			out.shrinkStep, out.arReturn, out.shrinkEnd = step, arEnd, t1
		}
		if killAt < 0 && flat[len(flat)-1] > 0 {
			killAt = step + 1
		}
		if steady {
			out.stepMs = append(out.stepMs, float64(t1.Sub(t0))/float64(time.Millisecond))
			st.steps = 1
			if m.timed != nil {
				st.send = m.timed.send - before.send
				st.recv = m.timed.recv - before.recv
				st.msgs = m.timed.msgs - before.msgs
				st.bytes = m.timed.bytes - before.bytes
			}
			out.lay.add(st)
			if lead {
				out.winSteps++
				out.winEnd = t1
				if c.traced && step == killAt-1 {
					runtime.ReadMemStats(&mem)
					out.allocBytes = mem.TotalAlloc - alloc0
					out.gcCount = uint64(mem.NumGC - gc0)
				}
			}
		}
		if lead && step == c.warm-1 {
			if c.snapshot {
				out.snap = model.State()
			}
			if c.traced {
				runtime.ReadMemStats(&mem)
				alloc0, gc0 = mem.TotalAlloc, mem.NumGC
			}
			out.winStart = time.Now()
		}
	}
	out.size = m.r.Size()
	out.model = model
}
