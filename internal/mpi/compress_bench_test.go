package mpi

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// The fp16 codec loops at the size of one ring segment of a 4.74M-element
// gradient at world 4. Inputs are N(0,1), so nearly every element takes
// the normal-range conversion. Run with
//
//	go test -run '^$' -bench F16 ./internal/mpi/
//
// and read ns/elem.
const f16BenchElems = 1_185_000

var f16Sink transport.F16

func f16BenchInput() []float32 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, f16BenchElems)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func reportPerElem(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/f16BenchElems, "ns/elem")
}

// BenchmarkF16Compress is one reduce-scatter send: encode and quantize
// the sender's segment in place.
func BenchmarkF16Compress(b *testing.B) {
	src := f16BenchInput()
	work := make([]float32, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, src) // off-grid values, as a freshly reduced segment holds
		b.StartTimer()
		f16Sink = f16Compress(work)
	}
	reportPerElem(b)
}

// BenchmarkF16Reduce is one reduce-scatter receive: decode and sum.
func BenchmarkF16Reduce(b *testing.B) {
	dst := f16BenchInput()
	in := f16Compress(f16BenchInput())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f16Reduce(dst, in, OpSum)
	}
	reportPerElem(b)
}

// BenchmarkF16Set is one allgather receive: decode and overwrite.
func BenchmarkF16Set(b *testing.B) {
	dst := make([]float32, f16BenchElems)
	in := f16Compress(f16BenchInput())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f16Set(dst, in)
	}
	reportPerElem(b)
}

// BenchmarkF16Distribute is a ring rank's work on its owned segment at
// the reduce→distribute boundary: round it onto the binary16 grid, then
// encode it for the first allgather send.
func BenchmarkF16Distribute(b *testing.B) {
	src := f16BenchInput()
	cb := &compBuf[float32]{v: make([]float32, len(src)), codec: CodecFP16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(cb.v, src)
		cb.dist = false
		b.StartTimer()
		cb.beginDistribution(0, len(cb.v))
		f16Sink = cb.extract(0, len(cb.v)).(transport.F16)
	}
	reportPerElem(b)
}
