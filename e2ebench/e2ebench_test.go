package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// runFirstBoot runs the first boot of dp-large for a short fault-free
// window (plus its kill and recovery) and returns its ranks' reports.
func runFirstBoot(t *testing.T, traced bool, delay time.Duration) []*rankRun {
	t.Helper()
	wl, err := workloadNamed("dp-large")
	if err != nil {
		t.Fatal(err)
	}
	c := newCycle(wl, rand.New(rand.NewSource(7)), 0, 1, 6)
	c.traced, c.delay = traced, delay
	_, _, runs, err := c.run(cycleLimit)
	if err != nil {
		t.Fatal(err)
	}
	for r, run := range runs {
		if run.err != nil {
			t.Fatalf("rank %d: %v", r, run.err)
		}
	}
	return runs
}

// The traced run's forwarder must not change what is computed: the
// replicas' parameters after the warm-up steps are bit-identical with and
// without it.
func TestForwarderIsTransparent(t *testing.T) {
	plain := runFirstBoot(t, false, 0)[0].snap
	traced := runFirstBoot(t, true, 0)[0].snap
	if len(plain) == 0 || len(plain) != len(traced) {
		t.Fatalf("snapshots of %d and %d parameters", len(plain), len(traced))
	}
	if h, g := plain.Hash(), traced.Hash(); h != g {
		t.Fatalf("parameter hash %#x untraced, %#x traced", h, g)
	}
}

// A fixed delay in every transport Send must move dp-large's step_p50_ms
// by more than the bound BENCHMARK.json gives it, or the benchmark could
// not see a regression of that size in the transport layer.
func TestSendDelayMovesStepP50(t *testing.T) {
	bound := metricBound(t, "step_p50_ms")
	p50 := func(runs []*rankRun) float64 {
		var ms []float64
		for _, run := range runs {
			ms = append(ms, run.stepMs...)
		}
		if len(ms) < 20 {
			t.Fatalf("only %d steady step samples", len(ms))
		}
		return median(ms)
	}
	base := p50(runFirstBoot(t, true, 0))
	slow := p50(runFirstBoot(t, true, 2*time.Millisecond))
	if slow <= base*(1+bound) {
		t.Fatalf("step_p50_ms %.1f with a 2 ms Send delay vs %.1f without: not beyond the %.0f%% bound", slow, base, 100*bound)
	}
	t.Logf("step_p50_ms %.1f -> %.1f with a 2 ms Send delay (bound %.0f%%)", base, slow, 100*bound)
}

// metricBound reads an end-to-end metric's bound from BENCHMARK.json.
func metricBound(t *testing.T, name string) float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return 0
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
}

// The single-worker replay drops exactly the victim's slice at the shrink
// step and continues on the shrunken world's slices.
func TestReplayConsumesTheWorldsBatches(t *testing.T) {
	wl := smallDP(t)
	c := newCycle(wl, rand.New(rand.NewSource(3)), 1, 0, 1)
	_, seen := replay(wl, c.data, c.initSeed, 3, 2, 1)
	want := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 10}
	if len(seen) != len(want) {
		t.Fatalf("replay trained on %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("replay trained on %v, want %v", seen, want)
		}
	}
}

// A short traced dp-large run passes every output check, so the
// forwarder, the per-cycle records and the replays across the shrink
// all run (and run under -race).
func TestShortRunPassesChecks(t *testing.T) {
	o, err := runWorkload(smallDP(t), 5, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	o.finish()
	if len(o.problems) > 0 {
		t.Fatalf("output checks failed: %v", o.problems)
	}
	if len(o.records) < 2 || o.records[0].SendStallS == nil {
		t.Fatalf("traced run produced cycle records %+v", o.records)
	}
	for name, m := range o.perLayer() {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

// smallDP is dp-large with a 9k-parameter MLP, so that a run of many
// cycles stays short, also under -race.
func smallDP(t *testing.T) *workload {
	t.Helper()
	wl, err := workloadNamed("dp-large")
	if err != nil {
		t.Fatal(err)
	}
	small := *wl
	small.sizes, small.lr = []int{32, 128, 32, 10}, 0.02
	return &small
}
