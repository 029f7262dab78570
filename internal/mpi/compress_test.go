package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

// One fp16 quantization hop must stay within the documented bound:
// 2^-11 relative for the normal binary16 range, flush-to-zero below,
// saturate above.
func TestF16OneHopErrorBound(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		got := transport.Float16From(transport.Float16Bits(x))
		ax := math.Abs(float64(x))
		switch {
		case ax < 0x1p-14: // subnormal range: absolute error within one subnormal step
			return math.Abs(float64(got)-float64(x)) <= 0x1p-24
		case ax > 65504: // overflow saturates
			return math.IsInf(float64(got), 0) || math.Abs(float64(got)) == 65504
		default:
			return math.Abs(float64(got)-float64(x)) <= 0x1p-11*ax
		}
	}
	cfg := &quick.Config{
		MaxCount: 20000,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			// Spread across the whole dynamic range, not just N(0,1):
			// mantissa * 2^[-20, 20).
			vs[0] = reflect.ValueOf(float32(r.Float64()*2-1) * float32(math.Pow(2, float64(r.Intn(40)-20))))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// f16Compress must be idempotent: the sender rewrites its range to the
// decoded values, so re-compressing yields bit-identical wire payloads
// (the uniformity property every fp16 send leans on).
func TestF16CompressIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(r.NormFloat64()) * float32(math.Pow(2, float64(r.Intn(30)-15)))
	}
	first := f16Compress(src)
	snapshot := append([]float32(nil), src...)
	second := f16Compress(src)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("elem %d: wire bits %04x then %04x — fp16 re-encode not idempotent", i, first[i], second[i])
		}
		if src[i] != snapshot[i] {
			t.Fatalf("elem %d: second compress moved the value %v -> %v", i, snapshot[i], src[i])
		}
	}
}

// After q8Compress rewrites the source, decoding the wire bytes must
// reproduce the source bit for bit — sender and receivers hold the same
// values, which is what makes a compressed reduce-scatter uniform.
func TestQ8RoundTripBitMatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		src := make([]float32, 1+r.Intn(2000))
		for i := range src {
			src[i] = float32(r.NormFloat64()) * float32(math.Pow(2, float64(r.Intn(20)-10)))
		}
		wire := q8Compress(src)
		dst := make([]float32, len(src))
		q8Set(dst, wire)
		for i := range src {
			if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
				t.Fatalf("trial %d elem %d: decoded %v (%08x), sender holds %v (%08x)",
					trial, i, dst[i], math.Float32bits(dst[i]), src[i], math.Float32bits(src[i]))
			}
		}
	}
}

// One int8 quantization hop of a chunk with max magnitude M is off by
// at most M/254 (half a grid step), plus float32 rounding slop on the
// scale itself.
func TestQ8OneHopErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		src := make([]float64, 1+r.Intn(2000))
		orig := make([]float64, len(src))
		var maxabs float64
		for i := range src {
			src[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(20)-10))
			orig[i] = src[i]
			if a := math.Abs(src[i]); a > maxabs {
				maxabs = a
			}
		}
		q8Compress(src)
		bound := maxabs/254*(1+1e-5) + 1e-300
		for i := range src {
			if e := math.Abs(src[i] - orig[i]); e > bound {
				t.Fatalf("trial %d elem %d: |%v - %v| = %v exceeds M/254 = %v",
					trial, i, src[i], orig[i], e, bound)
			}
		}
	}
}

// Degenerate chunks — all zero or infinity-poisoned (the scale itself
// blows up) — must quantize to all-zeros deterministically on every
// rank rather than diverge.
func TestQ8DegenerateScales(t *testing.T) {
	cases := map[string][]float32{
		"zeros": make([]float32, 16),
		"inf":   {1, float32(math.Inf(1)), 3},
	}
	for name, src := range cases {
		wire := q8Compress(src)
		if s := wire.Scale(); s != 0 {
			t.Errorf("%s: scale = %v, want 0", name, s)
		}
		for i, v := range src {
			if v != 0 {
				t.Errorf("%s: elem %d rewritten to %v, want 0", name, i, v)
			}
		}
		dst := make([]float32, len(src))
		q8Set(dst, wire)
		for i, v := range dst {
			if v != 0 {
				t.Errorf("%s: decoded elem %d = %v, want 0", name, i, v)
			}
		}
	}
	// A lone NaN does not poison the scale (comparisons against NaN are
	// false, so finite elements still set it); it quantizes to 0 while
	// its neighbors survive.
	src := []float32{1, float32(math.NaN()), 3}
	wire := q8Compress(src)
	if s := wire.Scale(); s <= 0 {
		t.Errorf("nan: scale = %v, want finite positive", s)
	}
	if src[1] != 0 {
		t.Errorf("nan: NaN element rewritten to %v, want 0", src[1])
	}
	if src[0] == 0 || src[2] == 0 {
		t.Errorf("nan: finite neighbors flattened: %v", src)
	}
}

// The codec flag spellings accepted by elasticd -codec.
func TestParseWireCodec(t *testing.T) {
	for spelling, want := range map[string]WireCodec{
		"": CodecRaw, "raw": CodecRaw, "none": CodecRaw,
		"fp16": CodecFP16, "F16": CodecFP16, "half": CodecFP16,
		"int8": CodecInt8, "q8": CodecInt8,
	} {
		got, err := ParseWireCodec(spelling)
		if err != nil || got != want {
			t.Errorf("ParseWireCodec(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseWireCodec("zstd"); err == nil {
		t.Error("ParseWireCodec accepted an unknown codec")
	}
}

// allreduceBuf must apply lossy codecs only to base float slices;
// integers always travel lossless no matter what was requested.
func TestAllreduceBufCodecSelection(t *testing.T) {
	if _, ok := allreduceBuf(make([]float32, 4), CodecFP16).(*compBuf[float32]); !ok {
		t.Error("float32 + fp16 did not build a compressed buffer")
	}
	if _, ok := allreduceBuf(make([]float64, 4), CodecInt8).(*compBuf[float64]); !ok {
		t.Error("float64 + int8 did not build a compressed buffer")
	}
	if _, ok := allreduceBuf(make([]int64, 4), CodecFP16).(numBuf[int64]); !ok {
		t.Error("int64 + fp16 did not fall back to the lossless buffer")
	}
	if _, ok := allreduceBuf(make([]float32, 4), CodecRaw).(numBuf[float32]); !ok {
		t.Error("float32 + raw did not use the lossless buffer")
	}
}

// End-to-end: a compressed allreduce over a full schedule must land
// within the multi-hop bound and — the ULFM prerequisite — bit-identical
// on every rank. Every fp16 schedule also runs worlds 2–5 on inputs that
// reach the binary16 subnormals and ±65504, at a size each world splits
// unevenly, both above and below the tree/ring switch of AlgoAuto.
func TestAllreduceCompressedEndToEnd(t *testing.T) {
	const elems = 40000 // > smallThreshold bytes, uneven across world 6
	for _, tc := range []struct {
		name  string
		codec WireCodec
		algo  AllreduceAlgo
	}{
		{"fp16-ring", CodecFP16, AlgoRing},
		{"fp16-pipelined", CodecFP16, AlgoPipelinedRing},
		{"fp16-recdouble", CodecFP16, AlgoRecursiveDoubling},
		{"fp16-hier", CodecFP16, AlgoHierarchical},
		{"fp16-auto", CodecFP16, AlgoAuto},
		{"int8-ring", CodecInt8, AlgoRing},
		{"int8-pipelined", CodecInt8, AlgoPipelinedRing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, ppn = 2, 3
			inputs := make([][]float32, nodes*ppn)
			for r := range inputs {
				rng := rand.New(rand.NewSource(int64(100 + r)))
				inputs[r] = make([]float32, elems)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
				}
			}
			checkCompressedAllreduce(t, tc.codec, tc.algo, nodes, ppn, inputs)
			if tc.codec != CodecFP16 {
				return
			}
			// nodes×ppn layouts give hierarchical both a single node and
			// multi-leader rings.
			for _, l := range []struct{ nodes, ppn int }{{1, 2}, {3, 1}, {2, 2}, {5, 1}} {
				for _, n := range []int{40001, 3001} { // ring and tree sizes; n%w != 0 for w in 2..5
					w := l.nodes * l.ppn
					t.Run(fmt.Sprintf("world%d-n%d", w, n), func(t *testing.T) {
						checkCompressedAllreduce(t, tc.codec, tc.algo, l.nodes, l.ppn, f16EdgeInputs(w, n))
					})
				}
			}
		})
	}
}

// f16EdgeInputs cycles four lanes through every element index: N(0,1);
// magnitudes 2^-14 and below, which quantize to binary16 subnormals;
// ±65504 held by one rank (zeros elsewhere), whose sum is exactly
// representable; and positive values up to 40000, whose partial sums
// overflow to +Inf. No lane can meet an Inf of the other sign, so no
// NaN appears.
func f16EdgeInputs(world, n int) [][]float32 {
	inputs := make([][]float32, world)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(500 + r)))
		inputs[r] = make([]float32, n)
		for i := range inputs[r] {
			var v float64
			switch i % 4 {
			case 0:
				v = rng.NormFloat64()
			case 1:
				v = (rng.Float64()*2 - 1) * math.Ldexp(1, -14-rng.Intn(12))
			case 2:
				if (i/4)%world == r {
					v = 65504
					if i%8 == 2 {
						v = -65504
					}
				}
			case 3:
				v = rng.Float64() * 40000
			}
			inputs[r][i] = float32(v)
		}
	}
	return inputs
}

// checkCompressedAllreduce runs one compressed OpSum allreduce of
// inputs (one slice per rank) on a nodes×ppn simulated world and checks
// cross-rank bit identity and the multi-hop error bound. Elements whose
// Σ|x_i| plus that bound passes 65504 may saturate under fp16; they are
// held to uniformity alone.
func checkCompressedAllreduce(t *testing.T, codec WireCodec, algo AllreduceAlgo, nodes, ppn int, inputs [][]float32) {
	t.Helper()
	world_ := nodes * ppn
	elems := len(inputs[0])
	exact := make([]float64, elems)
	sumAbs := make([]float64, elems)
	for r := 0; r < world_; r++ {
		for i, v := range inputs[r] {
			exact[i] += float64(v)
			sumAbs[i] += math.Abs(float64(v))
		}
	}
	var mu sync.Mutex
	results := make(map[int][]float32)
	world(t, nodes, ppn, func(c *Comm) error {
		data := append([]float32(nil), inputs[c.Rank()]...)
		opts := AllreduceOptions{Algo: algo, Chunks: DefaultPipelineChunks, Codec: codec}
		if err := AllreduceOpts(c, data, OpSum, opts); err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = data
		mu.Unlock()
		return nil
	})
	// Uniformity: every rank must hold bit-identical results.
	for r := 1; r < world_; r++ {
		for i := range results[0] {
			if math.Float32bits(results[r][i]) != math.Float32bits(results[0][i]) {
				t.Fatalf("rank %d elem %d = %v, rank 0 has %v — ranks diverged", r, i, results[r][i], results[0][i])
			}
		}
	}
	// Accuracy: generous multi-hop bounds (hops ≤ world+1 for the
	// ring family, ≤ 2·log2(world) for recursive doubling). The
	// int8 grid step follows the *chunk's* max partial magnitude,
	// so its bound is global: any partial sum is ≤ the largest
	// Σ|x_i| anywhere in the tensor.
	maxSumAbs := 0.0
	for _, s := range sumAbs {
		if s > maxSumAbs {
			maxSumAbs = s
		}
	}
	for i, got := range results[0] {
		var bound float64
		switch codec {
		case CodecFP16:
			bound = float64(world_+2) * 0x1p-11 * sumAbs[i]
			if sumAbs[i]+bound > 65504 {
				continue // a partial sum may round past 65504 to +Inf
			}
		case CodecInt8:
			bound = float64(world_) * maxSumAbs / 127 // 2x over (world-1)·M/254
		}
		bound += 1e-6 // float32 accumulation noise for near-zero sums
		if e := math.Abs(float64(got) - exact[i]); e > bound {
			t.Fatalf("elem %d: |%v - %v| = %v exceeds bound %v", i, got, exact[i], e, bound)
		}
	}
}

// A lossless AllreduceOpts run must be bit-identical to the seed
// Allreduce entry point — opting into the new data plane with CodecRaw
// changes nothing about the numbers.
func TestAllreduceOptsRawMatchesAllreduce(t *testing.T) {
	const elems = 33000 // > smallThreshold bytes
	const nodes, ppn = 2, 2
	world_ := nodes * ppn
	inputs := make([][]float32, world_)
	for r := 0; r < world_; r++ {
		rng := rand.New(rand.NewSource(int64(7 + r)))
		inputs[r] = make([]float32, elems)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	run := func(algo AllreduceAlgo, viaOpts bool) map[int][]float32 {
		var mu sync.Mutex
		results := make(map[int][]float32)
		world(t, nodes, ppn, func(c *Comm) error {
			data := append([]float32(nil), inputs[c.Rank()]...)
			var err error
			if viaOpts {
				err = AllreduceOpts(c, data, OpSum, AllreduceOptions{Algo: algo})
			} else {
				err = Allreduce(c, data, OpSum)
			}
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = data
			mu.Unlock()
			return nil
		})
		return results
	}
	seed := run(AlgoAuto, false)
	for _, algo := range []AllreduceAlgo{AlgoAuto, AlgoRing} {
		got := run(algo, true)
		for r := 0; r < world_; r++ {
			for i := range seed[r] {
				if math.Float32bits(got[r][i]) != math.Float32bits(seed[r][i]) {
					t.Fatalf("algo %v rank %d elem %d: AllreduceOpts %v != seed Allreduce %v",
						algo, r, i, got[r][i], seed[r][i])
				}
			}
		}
	}
}
