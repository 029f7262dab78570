package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/transport"
)

// Wire-format gradient compression. A WireCodec selects how a float
// collective's chunks travel: raw little-endian bits (lossless), IEEE
// binary16 (half the bytes), or block-quantized int8 with a per-chunk
// scale (quarter the bytes for float32). Compression happens inside the
// buffer abstraction — extract() emits a compressed transport payload,
// setIn()/reduceIn() decompress-and-combine in one pass — so every
// allreduce schedule (ring, pipelined, tree, recursive doubling,
// hierarchical) compresses without algorithm changes, and ULFM
// retry-after-shrink replays it like any other collective.
//
// Uniformity. ULFM requires every member to finish a collective with
// bit-identical results. Two mechanisms preserve that under compression:
//
//  1. extract() quantizes the sender's own range in place before
//     sending, so a rank always holds exactly the values its receivers
//     decode — for fp16 this makes sends self-consistent everywhere,
//     because the binary16 round-trip is idempotent (re-encoding an
//     already-representable value returns its own bits). At the
//     reduce→distribute boundary fp16 additionally rounds the range the
//     schedule names (beginDistribution), because quantize-on-send
//     cannot reach ranks that never forward a finished segment. Ring
//     schedules name only the segment this rank owns after the
//     reduce-scatter: the allgather overwrites every other segment with
//     decoded, already-on-grid values. Tree, recursive doubling and
//     hierarchical name the whole buffer. From then on fp16 sends are
//     encode-only — the values are on the grid, so writing the decoded
//     values back would change nothing.
//
//  2. int8 re-quantization is NOT idempotent (the per-chunk scale
//     drifts as the data shrinks toward the grid), so once a value is
//     final — the allgather half of a ring, a result broadcast, the
//     recursive-doubling post-phase — the schedule flips the buffer
//     into distribution mode (markDistribute) and finished segments
//     travel as lossless raw bytes. Reduction-direction traffic, which
//     dominates, stays compressed.
//
// Error bounds (documented for the property tests): one fp16
// quantization of x adds at most 2^-11·|x| relative error for |x| in
// [2^-14, 65504] (flushing to zero below, saturating to ±Inf above);
// an OpSum allreduce across w ranks over h quantization hops is off by
// at most (h+1)·2^-11·Σ|x_i| elementwise. One int8 quantization of a
// chunk with max magnitude M adds at most M/254 absolute error (half a
// grid step of 2M/254); hops multiply the bound the same way.

// WireCodec selects the wire representation of float collective chunks.
type WireCodec int

const (
	// CodecRaw sends full-width little-endian bits (lossless).
	CodecRaw WireCodec = iota
	// CodecFP16 sends IEEE binary16 — 2 bytes/element.
	CodecFP16
	// CodecInt8 sends block-quantized int8 with a per-chunk float32
	// scale — 1 byte/element + 4 bytes/chunk.
	CodecInt8
)

// codecCount is the number of WireCodec values (array sizing).
const codecCount = int(CodecInt8) + 1

func (c WireCodec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseWireCodec parses the flag spellings of the codec names (as
// accepted by cmd/elasticd's -codec flag).
func ParseWireCodec(s string) (WireCodec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "raw", "none":
		return CodecRaw, nil
	case "fp16", "f16", "half":
		return CodecFP16, nil
	case "int8", "q8":
		return CodecInt8, nil
	default:
		return CodecRaw, fmt.Errorf("mpi: unknown wire codec %q (want raw, fp16, or int8)", s)
	}
}

// WireBytesPerElem reports the nominal wire cost of one element of the
// given native width under a codec (the int8 per-chunk scale header is
// amortized away). For reports and ablation tables; the measured wire
// bytes live in the tcpnet tx counters.
func WireBytesPerElem(c WireCodec, elemBytes int) float64 {
	switch c {
	case CodecFP16:
		return 2
	case CodecInt8:
		return 1
	default:
		return float64(elemBytes)
	}
}

// Float constrains the element types the lossy codecs apply to.
type Float interface{ ~float32 | ~float64 }

// markDistribute flips a compression-aware buffer into distribution
// mode: the collective's remaining sends carry finished values, so
// non-idempotent codecs switch to lossless bytes (see the uniformity
// notes above). [lo, hi) is the range whose values this rank must hold
// on the codec grid before distribution starts: the whole buffer,
// unless the schedule overwrites the rest with received finished
// values. A no-op for plain buffers.
func markDistribute(b buf, lo, hi int) {
	if d, ok := b.(interface{ beginDistribution(lo, hi int) }); ok {
		d.beginDistribution(lo, hi)
	}
}

// markRingOwned is markDistribute for the ring allgather that follows a
// ring reduce-scatter over bounds: rank r owns finished segment (r+1)%p,
// and the allgather overwrites every other segment with received
// finished values, so only the owned segment needs rounding.
func markRingOwned(b buf, bounds []int, rank int) {
	own := (rank + 1) % (len(bounds) - 1)
	markDistribute(b, bounds[own], bounds[own+1])
}

// compBuf wraps a float slice with a lossy wire codec. Pointer receiver:
// the distribution flag mutates during the collective.
type compBuf[T Float] struct {
	v     []T
	codec WireCodec
	dist  bool
}

// beginDistribution marks the reduce→distribute boundary. For fp16 it
// also rounds [lo, hi) through binary16: finished values land on the
// codec grid on every rank — senders and non-senders alike — before any
// distribution traffic, so ranks that never forward a segment
// (recursive doubling's core group at non-power-of-2 worlds,
// hierarchical non-leaders) hold exactly the bits their peers decode.
// Without this, quantize-on-send alone leaves non-senders off-grid and
// the group diverges. Idempotent: the second call is a no-op.
func (b *compBuf[T]) beginDistribution(lo, hi int) {
	if b.dist {
		return
	}
	b.dist = true
	if b.codec == CodecFP16 {
		v := b.v[lo:hi]
		for i, x := range v {
			v[i] = T(transport.Float16From(transport.Float16Bits(float32(x))))
		}
	}
}

func (b *compBuf[T]) length() int { return len(b.v) }

func (b *compBuf[T]) bytesFor(n int) int64 {
	switch {
	case b.codec == CodecFP16:
		return int64(n) * 2
	case b.codec == CodecInt8 && !b.dist:
		return int64(n) + transport.Q8HeaderLen
	default:
		return numBuf[T]{}.bytesFor(n)
	}
}

func (b *compBuf[T]) extract(lo, hi int) any {
	switch {
	case b.codec == CodecFP16 && b.dist:
		return f16Encode(b.v[lo:hi]) // finished values are on the grid already
	case b.codec == CodecFP16:
		return f16Compress(b.v[lo:hi])
	case b.codec == CodecInt8 && !b.dist:
		return q8Compress(b.v[lo:hi])
	default:
		return numBuf[T]{v: b.v}.extract(lo, hi)
	}
}

func (b *compBuf[T]) setIn(lo, hi int, pay any) {
	dst := b.v[lo:hi]
	switch p := pay.(type) {
	case transport.F16:
		f16Set(dst, p)
	case transport.Q8:
		q8Set(dst, p)
	case *transport.RawPayload:
		if v, ok := p.AsF16(); ok {
			f16Set(dst, v)
			p.Release()
			return
		}
		if v, ok := p.AsQ8(); ok {
			q8Set(dst, v)
			p.Release()
			return
		}
		numBuf[T]{v: b.v}.setIn(lo, hi, pay) // lossless distribution payload
	default:
		numBuf[T]{v: b.v}.setIn(lo, hi, pay)
	}
}

func (b *compBuf[T]) reduceIn(lo, hi int, pay any, op Op) {
	dst := b.v[lo:hi]
	switch p := pay.(type) {
	case transport.F16:
		f16Reduce(dst, p, op)
	case transport.Q8:
		q8Reduce(dst, p, op)
	case *transport.RawPayload:
		// Fused decompress-and-reduce straight out of the transport's
		// frame buffer: one traversal, no decoded scratch slice.
		if v, ok := p.AsF16(); ok {
			f16Reduce(dst, v, op)
			p.Release()
			return
		}
		if v, ok := p.AsQ8(); ok {
			q8Reduce(dst, v, op)
			p.Release()
			return
		}
		numBuf[T]{v: b.v}.reduceIn(lo, hi, pay, op)
	default:
		numBuf[T]{v: b.v}.reduceIn(lo, hi, pay, op)
	}
}

// allreduceBuf builds the working buffer for an allreduce of data under
// the requested codec. Lossy codecs apply to the base float slice
// types; anything else (integers, named float types) falls back to the
// lossless numeric buffer regardless of the requested codec.
func allreduceBuf[T Number](data []T, codec WireCodec) buf {
	if codec != CodecRaw {
		switch v := any(data).(type) {
		case []float32:
			return &compBuf[float32]{v: v, codec: codec}
		case []float64:
			return &compBuf[float64]{v: v, codec: codec}
		}
	}
	return numBuf[T]{v: data}
}

// --- fp16 ---------------------------------------------------------------

// f16Compress quantizes src to binary16 in place (so the sender holds
// exactly what receivers will decode) and returns the wire payload.
func f16Compress[T Float](src []T) transport.F16 {
	out := make(transport.F16, len(src))
	for i, v := range src {
		h := transport.Float16Bits(float32(v))
		out[i] = h
		src[i] = T(transport.Float16From(h))
	}
	return out
}

// f16Encode returns the wire payload of src without touching src: for
// values already on the binary16 grid it decodes back to src exactly.
func f16Encode[T Float](src []T) transport.F16 {
	out := make(transport.F16, len(src))
	for i, v := range src {
		out[i] = transport.Float16Bits(float32(v))
	}
	return out
}

func f16Set[T Float](dst []T, in transport.F16) {
	checkLen(len(dst), len(in), "fp16")
	for i := range dst {
		dst[i] = T(transport.Float16From(in[i]))
	}
}

func f16Reduce[T Float](dst []T, in transport.F16, op Op) {
	checkLen(len(dst), len(in), "fp16")
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += T(transport.Float16From(in[i]))
		}
	case OpProd:
		for i := range dst {
			dst[i] *= T(transport.Float16From(in[i]))
		}
	case OpMax:
		for i := range dst {
			if v := T(transport.Float16From(in[i])); v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i := range dst {
			if v := T(transport.Float16From(in[i])); v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: op %v not supported on compressed float payloads", op))
	}
}

// --- int8 ---------------------------------------------------------------

// q8Compress block-quantizes src to int8 with a per-chunk scale,
// rewriting src with the dequantized values so the sender's copy
// matches what receivers decode bit for bit (the dequantization
// expression below is the same float32 arithmetic q8Set uses).
// Non-finite inputs quantize deterministically: NaN to 0, ±Inf to the
// clamp ends (the scale itself degenerates, so these are documented
// garbage-in cases, not silent divergence across ranks).
func q8Compress[T Float](src []T) transport.Q8 {
	out := make(transport.Q8, transport.Q8HeaderLen+len(src))
	var maxabs float64
	for _, v := range src {
		if a := math.Abs(float64(v)); a > maxabs {
			maxabs = a
		}
	}
	scale := float32(maxabs / 127)
	binary.LittleEndian.PutUint32(out[:transport.Q8HeaderLen], math.Float32bits(scale))
	if scale == 0 || math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) {
		scale = 0
		binary.LittleEndian.PutUint32(out[:transport.Q8HeaderLen], math.Float32bits(scale))
		for i := range src {
			src[i] = 0
		}
		return out
	}
	for i, v := range src {
		q := math.Round(float64(v) / float64(scale))
		switch {
		case math.IsNaN(q):
			q = 0
		case q > 127:
			q = 127
		case q < -127:
			q = -127
		}
		qi := int8(q)
		out[transport.Q8HeaderLen+i] = byte(qi)
		src[i] = T(scale * float32(qi))
	}
	return out
}

func q8Set[T Float](dst []T, in transport.Q8) {
	checkLen(len(dst), in.Elems(), "int8")
	s := in.Scale()
	for i := range dst {
		dst[i] = T(s * float32(int8(in[transport.Q8HeaderLen+i])))
	}
}

func q8Reduce[T Float](dst []T, in transport.Q8, op Op) {
	checkLen(len(dst), in.Elems(), "int8")
	s := in.Scale()
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += T(s * float32(int8(in[transport.Q8HeaderLen+i])))
		}
	case OpProd:
		for i := range dst {
			dst[i] *= T(s * float32(int8(in[transport.Q8HeaderLen+i])))
		}
	case OpMax:
		for i := range dst {
			if v := T(s * float32(int8(in[transport.Q8HeaderLen+i]))); v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i := range dst {
			if v := T(s * float32(int8(in[transport.Q8HeaderLen+i]))); v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: op %v not supported on compressed float payloads", op))
	}
}

func checkLen(dst, in int, codec string) {
	if dst != in {
		panic(fmt.Sprintf("mpi: %s payload of %d elements for a %d-element range", codec, in, dst))
	}
}
