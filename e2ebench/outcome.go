package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/mpi"
)

// outcome accumulates a run's cycles: the output checks, the end-to-end
// samples and, in a traced run, the per-layer sums.
type outcome struct {
	wl     *workload
	traced bool

	problems          []string
	attempted, failed int
	records           []cycleRecord

	setups     []float64 // s, one per boot
	stepMs     []float64 // steady step wall times, every rank pooled
	winSteps   int       // steady steps at rank 0
	winDur     time.Duration
	recoveries []float64 // s, one per kill
	heapPeak   uint64
	lossDiffs  []float64       // |distributed - baseline| loss on the baseline's samples
	lossFalls  []float64       // the baseline's loss fall over the same cycles
	lossTols   []float64       // the loss tolerance applied to them
	spreads    map[int]float64 // lossy-codec loss tolerance by step count

	plan                mpi.AllreducePlan // the world-4 pick at the end of the run
	steal               float64           // share of CPU time the hypervisor took during the run
	lay                 layers
	planChanges         int
	allocBytes, gcCount uint64
	useful, repairs     int
	stalledCycles       int
}

// cycleRecord is one kill cycle as printed: which rank died when, and
// how long each stage of the recovery took. Times are seconds after
// the kill except resume_s, which runs from the last declaration.
type cycleRecord struct {
	Cycle       int      `json:"cycle"`
	Victim      int      `json:"victim"`
	KillStep    int      `json:"kill_step"`
	ShrinkStep  int      `json:"shrink_step"`
	SetupS      float64  `json:"setup_s"`
	DetectS     float64  `json:"detect_s"`
	DeclareS    float64  `json:"declare_s"`
	ResumeS     float64  `json:"resume_s"`
	RecoveryS   float64  `json:"recovery_s"`
	RevokeS     float64  `json:"revoke_s"`
	AgreeS      float64  `json:"agree_s"`
	ShrinkS     float64  `json:"shrink_s"`
	Repairs     int      `json:"repairs"`
	Verdicts    int      `json:"verdicts"`               // survivors whose gossip declared the victim dead
	FalseDeaths int      `json:"false_deaths"`           // gossip death declarations of live members
	SendStallS  *float64 `json:"send_stall_s,omitempty"` // traced runs only
	Stalled     *bool    `json:"stalled,omitempty"`      // traced runs only
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// add checks one cycle and folds it into the run.
func (o *outcome) add(i int, c *cycle, setup time.Time, w *world, runs []*rankRun) {
	w.marks.mu.Lock()
	kill, detect := w.marks.kill, w.marks.detect
	verdicts, falseDeaths := w.marks.verdicts, w.marks.falseDeaths
	declared := make(map[int]time.Time, len(w.marks.declared))
	for r, t := range w.marks.declared {
		declared[r] = t
	}
	w.marks.mu.Unlock()

	victim := runs[c.victim]
	killAt := len(victim.done)
	rec := cycleRecord{Cycle: i, Victim: c.victim, KillStep: killAt, ShrinkStep: -1, Verdicts: verdicts, FalseDeaths: falseDeaths}
	if victim.err != nil {
		o.fail("cycle %d: victim failed before its kill: %v", i, victim.err)
		o.failed++
		o.attempted++
	}
	o.attempted += len(victim.done)

	var firstDone, lastDeclare, lastShrink, lastReturn time.Time
	var survivors []*rankRun
	var hash uint64
	hashed := false
	for r, run := range runs {
		firstDone = latest(firstDone, run.firstDone)
		o.stepMs = append(o.stepMs, run.stepMs...)
		o.lay.add(run.lay)
		if r == c.victim {
			continue
		}
		survivors = append(survivors, run)
		o.attempted += len(run.done)
		if run.err != nil {
			o.attempted++
			o.failed++
			o.fail("cycle %d rank %d: %v", i, r, run.err)
			continue
		}
		want := runs[survivorRank(c.victim)].end
		if !sequential(run.done, want) || run.lossGrads != len(run.done) {
			o.fail("cycle %d rank %d: completed steps %v with %d gradient computations, want steps 0..%d once each",
				i, r, run.done, run.lossGrads, want-1)
		}
		if run.size != worldSize-1 {
			o.fail("cycle %d rank %d: ended at world %d, want %d", i, r, run.size, worldSize-1)
		}
		if run.shrinkStep < 0 || (rec.ShrinkStep >= 0 && run.shrinkStep != rec.ShrinkStep) {
			o.fail("cycle %d rank %d: shrank at step %d, others at %d", i, r, run.shrinkStep, rec.ShrinkStep)
		}
		rec.ShrinkStep = run.shrinkStep
		if h := run.model.StateHash(); !hashed {
			hash, hashed = h, true
		} else if h != hash {
			o.fail("cycle %d rank %d: parameter hash %#x differs from another survivor's %#x", i, r, h, hash)
		}
		t, ok := declared[r]
		if !ok {
			o.fail("cycle %d rank %d: never saw the victim declared down", i, r)
		}
		lastDeclare = latest(lastDeclare, t)
		lastShrink = latest(lastShrink, run.shrinkEnd)
		lastReturn = latest(lastReturn, run.arReturn)
	}
	if detect.IsZero() {
		o.fail("cycle %d: no gossip member ever declared the victim dead", i)
	}
	if len(o.problems) > 0 {
		return
	}

	lead := runs[0]
	o.winSteps += lead.winSteps
	if lead.winSteps > 0 {
		o.winDur += lead.winEnd.Sub(lead.winStart)
	}
	o.planChanges += lead.planChanges
	o.allocBytes += lead.allocBytes
	o.gcCount += lead.gcCount

	rec.SetupS = firstDone.Sub(setup).Seconds()
	rec.DetectS = detect.Sub(kill).Seconds()
	rec.DeclareS = lastDeclare.Sub(kill).Seconds()
	rec.ResumeS = lastReturn.Sub(lastDeclare).Seconds()
	rec.RecoveryS = lastShrink.Sub(kill).Seconds()
	for r, m := range w.members {
		if r == c.victim {
			continue
		}
		evs := m.r.Events()
		rec.Repairs += len(evs)
		var revoke, agree, shrink float64
		for _, bd := range evs {
			revoke += bd.Get(metrics.PhaseRevoke)
			agree += bd.Get(metrics.PhaseAgree)
			shrink += bd.Get(metrics.PhaseShrink)
		}
		rec.RevokeS, rec.AgreeS, rec.ShrinkS = max(rec.RevokeS, revoke), max(rec.AgreeS, agree), max(rec.ShrinkS, shrink)
	}
	o.useful += len(survivors)
	o.repairs += rec.Repairs
	if o.traced {
		var longest time.Duration
		stalled := false
		for r, m := range w.members {
			longest = max(longest, m.timed.longest)
			if r == c.victim {
				continue
			}
			for _, s := range m.timed.long {
				stalled = stalled || (s.start.Before(lastDeclare) && s.end.After(lastDeclare))
			}
		}
		stall := longest.Seconds()
		rec.SendStallS, rec.Stalled = &stall, &stalled
		if stalled {
			o.stalledCycles++
		}
	}
	o.setups = append(o.setups, rec.SetupS)
	o.recoveries = append(o.recoveries, rec.RecoveryS)
	o.records = append(o.records, rec)

	// The single-worker baseline: the first boot checks the replicas
	// after its warm-up steps, every kill cycle checks its survivors
	// after the whole cycle, across the shrink.
	steps, victimAt, shrinkAt := len(survivors[0].done), c.victim, rec.ShrinkStep
	dist := survivors[0].model
	if c.snapshot {
		steps, victimAt, shrinkAt = c.warm, -1, -1
		dist = models.NewMLP(c.wl.sizes, c.initSeed)
		dist.SetState(lead.snap)
	}
	base, seen := replay(c.wl, c.data, c.initSeed, steps, victimAt, shrinkAt)
	tol := -1.0
	if c.wl.codec != mpi.CodecRaw {
		// A lossy wire codec changes the arithmetic: the loss must match
		// within the baseline's spread across seeds. The spread belongs
		// to the task and the step count, so a run measures it once per
		// step count, from the seeds of the first cycle with that count.
		var ok bool
		if tol, ok = o.spreads[steps]; !ok {
			tol = seedSpread(c.wl, steps, [][2]int64{
				{c.dataSeed, c.initSeed}, {c.dataSeed + 1, c.initSeed + 1}, {c.dataSeed + 2, c.initSeed + 2},
			})
			o.spreads[steps] = tol
		}
	}
	diff, fall, tol, problem := lossCheck(dist, base, seen, c.data, c.initSeed, c.wl, tol)
	o.lossDiffs = append(o.lossDiffs, diff)
	o.lossFalls = append(o.lossFalls, fall)
	o.lossTols = append(o.lossTols, tol)
	if problem != "" {
		o.fail("cycle %d: %s", i, problem)
	}
}

// finish runs the checks that need the whole run.
func (o *outcome) finish() {
	if len(o.problems) > 0 {
		return
	}
	if n := len(o.stepMs); n < 100 {
		o.fail("only %d steady step samples; the p90 needs at least 100 to leave ten beyond it", n)
	}
	if o.winSteps == 0 {
		o.fail("no steady steps at rank 0")
	}
}

// survivorRank is the lowest gathered rank that survived the kill.
func survivorRank(victim int) int {
	if victim == 0 {
		return 1
	}
	return 0
}

func sequential(done []int, n int) bool {
	if len(done) != n {
		return false
	}
	for i, s := range done {
		if s != i {
			return false
		}
	}
	return true
}

func latest(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func (o *outcome) summary() map[string]any {
	return map[string]any{
		"workload":      o.wl.name,
		"cycles":        len(o.records),
		"step_samples":  len(o.stepMs),
		"window_steps":  o.winSteps,
		"loss_diff_max": slices.Max(append([]float64{0}, o.lossDiffs...)),
		"loss_fall_min": minOrNil(o.lossFalls),
		"loss_tol_max":  slices.Max(append([]float64{0}, o.lossTols...)),
		"problems":      len(o.problems),
		"plan":          o.plan.String(),
		"cpu_steal":     o.steal,
	}
}

// minOrNil is the least of v, or nil (JSON null) when v is empty.
func minOrNil(v []float64) any {
	if len(v) == 0 {
		return nil
	}
	return slices.Min(v)
}

func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {median(o.setups), "s"},
		"steps_per_s": {float64(o.winSteps) / o.winDur.Seconds(), "1/s"},
		"step_p50_ms": {quantile(o.stepMs, 0.5), "ms"},
		"step_p90_ms": {quantile(o.stepMs, 0.9), "ms"},
		"recovery_s":  {median(o.recoveries), "s"},
		"mem_peak_mb": {float64(o.heapPeak) / (1 << 20), "MB"},
	}
}

func (o *outcome) perLayer() map[string]metric {
	perStep := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(o.lay.steps)
	}
	col := func(f func(cycleRecord) float64) float64 {
		var v []float64
		for _, r := range o.records {
			v = append(v, f(r))
		}
		return median(v)
	}
	l := o.lay
	return map[string]metric{
		"data.batch_ms":             {perStep(l.batch), "ms"},
		"models.loss_and_grad_ms":   {perStep(l.lossGrad), "ms"},
		"tensor.flatten_ms":         {perStep(l.flatten), "ms"},
		"optimizer.step_ms":         {perStep(l.opt), "ms"},
		"ulfm.allreduce_ms":         {perStep(l.allreduce), "ms"},
		"mpi.self_ms":               {perStep(l.allreduce - l.send - l.recv), "ms"},
		"transport.send_ms":         {perStep(l.send), "ms"},
		"transport.recv_wait_ms":    {perStep(l.recv), "ms"},
		"transport.msgs_per_step":   {float64(l.msgs) / float64(l.steps), "count"},
		"transport.bytes_per_step":  {float64(l.bytes) / float64(l.steps), "B"},
		"mpi.plan_changes":          {float64(o.planChanges), "count"},
		"proc.alloc_bytes_per_step": {float64(o.allocBytes) / float64(o.winSteps), "B"},
		"proc.gc_cycles":            {float64(o.gcCount), "count"},
		"gossip.detect_s":           {col(func(r cycleRecord) float64 { return r.DetectS }), "s"},
		"rendezvous.declare_s":      {col(func(r cycleRecord) float64 { return r.DeclareS }), "s"},
		"ulfm.resume_s":             {col(func(r cycleRecord) float64 { return r.ResumeS }), "s"},
		"ulfm.revoke_s":             {col(func(r cycleRecord) float64 { return r.RevokeS }), "s"},
		"ulfm.agree_s":              {col(func(r cycleRecord) float64 { return r.AgreeS }), "s"},
		"ulfm.shrink_s":             {col(func(r cycleRecord) float64 { return r.ShrinkS }), "s"},
		"ulfm.repairs_per_kill":     {float64(o.useful) / float64(o.repairs), "ratio"},
		"transport.send_stall_s":    {col(func(r cycleRecord) float64 { return *r.SendStallS }), "s"},
		"transport.stalled_cycles":  {float64(o.stalledCycles), "count"},
		"trace.step_p50_ms":         {quantile(o.stepMs, 0.5), "ms"},
	}
}

// quantile is the q-quantile of v by linear interpolation between the
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// heapWatch samples the live Go heap every few milliseconds through
// runtime/metrics, which reads the figure runtime.MemStats reports as
// HeapAlloc without stopping the world.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak it saw, in bytes.
func (h *heapWatch) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// cpuTimes reads the busy-plus-idle and the steal jiffies of all CPUs
// from /proc/stat; both are 0 where it is unavailable.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// host is the fingerprint every result is stamped with: absolute rows
// compare only between runs on the same host.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func stampHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
