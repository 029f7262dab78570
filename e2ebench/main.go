// Command e2ebench is the repository's end-to-end benchmark: a world of 4
// ranks in one process, wired over loopback TCP the way cmd/elasticd
// wires its workers, trains a real MLP with data-parallel SGD and
// resilient allreduces, loses a rank, and recovers forward.
//
//	go run . --workload dp-large --seed 1 --seconds 45 --trace 0
//
// It prints a host stamp, one JSON record per boot (kill cycle) and, as
// its last line, the result: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. WORKLOADS.md describes the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/mpi"
)

// cycleLimit bounds one boot; a cycle that exceeds it is wedged.
const cycleLimit = 60 * time.Second

func main() {
	name := flag.String("workload", "", "workload: dp-large or dp-fp16")
	seed := flag.Int64("seed", 1, "seed for datasets, initial weights, kill victims and kill steps")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	wl, err := workloadNamed(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		flag.Usage()
		os.Exit(2)
	}

	printJSON(map[string]any{"host": stampHost()})
	o, err := runWorkload(wl, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		// A wedged cycle is diagnosed from where every goroutine sits.
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(1)
	}
	o.finish()
	for _, rec := range o.records {
		printJSON(map[string]any{"cycle": rec})
	}
	printJSON(map[string]any{"summary": o.summary()})

	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if res.Correct {
		if *traceFlag == 1 {
			res.Metrics = o.perLayer()
		} else {
			res.Metrics = o.endToEnd()
		}
	}
	printJSON(res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: output checks failed:\n  "+strings.Join(o.problems, "\n  "))
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil { // a NaN or infinite figure: a benchmark bug
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runWorkload boots, trains and kills cycle after cycle until seconds
// have elapsed, checking every cycle's outputs.
func runWorkload(wl *workload, seed int64, seconds float64, traced bool) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	o := &outcome{wl: wl, traced: traced, spreads: map[int]float64{}}
	total0, steal0 := cpuTimes()
	start := time.Now()
	firstVictim := rng.Intn(worldSize)
	for i := 0; ; i++ {
		c := newCycle(wl, rng, i, firstVictim, seconds)
		c.traced = traced
		// The heap is watched only while the world runs, from a clean
		// start: the checks' replays and the previous cycle's garbage
		// are the benchmark's, not the program's.
		runtime.GC()
		heap := watchHeap()
		setup, w, runs, err := c.run(cycleLimit)
		o.heapPeak = max(o.heapPeak, heap.end())
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		o.add(i, c, setup, w, runs)
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if total, steal := cpuTimes(); total > total0 {
		o.steal = float64(steal-steal0) / float64(total-total0)
	}
	o.plan = mpi.PlanAllreduce(wl.wireBytes(), worldSize, wl.opts())
	return o, nil
}
