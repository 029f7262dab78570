package main

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optimizer"
)

// evalSize caps the training samples the loss checks evaluate on.
const evalSize = 256

// rawLossTol is the relative loss difference the raw-codec workloads may
// show against the single-worker baseline: float32 rounding from a
// different summation order, far below the spread across seeds.
const rawLossTol = 1e-4

// lossMargin is how many raw-codec tolerances the baseline's loss must
// fall by, so that a dropped rank contribution or a mis-scaled gradient
// moves the distributed loss by more than the tolerance. The lossy
// codec's tolerance, the spread across seeds, is of the order of the
// fall itself; there the loss need only fall.
const lossMargin = 10

// evalLoss is the mean cross-entropy of m on the samples idx, as the
// model's own training step computes it.
func evalLoss(m *models.MLP, ds *data.Synthetic, idx []int) float64 {
	xs, ys := ds.Batch(idx)
	loss, _ := m.LossAndGrad(xs, ys, m.ZeroGrads())
	return loss
}

// replay is the plain single-worker run of a cycle's task: one model
// trained for steps steps on the global batches the world consumed, i.e.
// every rank's slice before the shrink step, the survivors' slices at
// it, and the shrunken world's slices after it (shrinkStep -1: none).
// It also returns the first evalSize samples it trained on.
func replay(wl *workload, ds *data.Synthetic, initSeed int64, steps, victim, shrinkStep int) (*models.MLP, []int) {
	model := models.NewMLP(wl.sizes, initSeed)
	opt := optimizer.NewSGD(wl.lr, wl.momentum)
	grads := model.ZeroGrads()
	var seen []int
	base, size := 0, worldSize
	for step := 0; step < steps; step++ {
		var idx []int
		for r := 0; r < size; r++ {
			if step == shrinkStep && r == victim {
				continue
			}
			idx = append(idx, slice(base, r, wl.batch)...)
		}
		if room := evalSize - len(seen); room > 0 {
			seen = append(seen, idx[:min(room, len(idx))]...)
		}
		xs, ys := ds.Batch(idx)
		model.LossAndGrad(xs, ys, grads)
		opt.Step(model.Params(), grads)
		base += size * wl.batch
		if step == shrinkStep {
			size--
		}
	}
	return model, seen
}

// lossCheck compares the distributed model's loss on the samples the
// baseline trained on (seen) with the single-worker baseline's, and
// requires the baseline's loss to have fallen from its initial value.
// tol < 0 means the raw-codec rounding tolerance, and then the fall must
// be lossMargin tolerances. It returns the difference, the baseline's
// fall and the tolerance applied.
func lossCheck(dist, base *models.MLP, seen []int, ds *data.Synthetic, initSeed int64, wl *workload, tol float64) (diff, fall, applied float64, problem string) {
	ld, lb := evalLoss(dist, ds, seen), evalLoss(base, ds, seen)
	l0 := evalLoss(models.NewMLP(wl.sizes, initSeed), ds, seen)
	diff, fall = math.Abs(ld-lb), l0-lb
	minFall := 0.0
	if tol < 0 {
		tol = rawLossTol * max(1, math.Abs(lb))
		minFall = lossMargin * tol
	}
	switch {
	case !(fall > minFall):
		return diff, fall, tol, fmt.Sprintf("baseline loss fell by %.3g (%.6g at init, %.6g after training), not by more than %.3g",
			fall, l0, lb, minFall)
	case !(diff <= tol):
		return diff, fall, tol, fmt.Sprintf("loss %.9g differs from the single-worker baseline %.9g by %.3g (allowed %.3g)", ld, lb, diff, tol)
	}
	return diff, fall, tol, ""
}

// seedSpread is the spread (max - min) of the baseline's loss on its
// training samples after steps steps across the given
// dataset/initialisation seed pairs.
func seedSpread(wl *workload, steps int, seeds [][2]int64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range seeds {
		ds := data.NewSynthetic(datasetSize, wl.sizes[0], classes, s[0])
		m, seen := replay(wl, ds, s[1], steps, -1, -1)
		l := evalLoss(m, ds, seen)
		lo, hi = min(lo, l), max(hi, l)
	}
	return hi - lo
}
