package main

import (
	"time"

	"repro/internal/transport"
)

// timedEndpoint is the traced run's transport forwarder. Embedding the
// transport.Endpoint interface gives it exactly the Endpoint method set:
// it is not a transport.Locator, so mpi keeps the tuner path it takes on
// the bare tcpnet endpoint. Only the owning rank's goroutine calls Send
// and Recv (mpi and ulfm run a rank's collectives, and its control
// handler, on that goroutine), so the counters need no locking; they are
// read after the goroutine has exited.
type timedEndpoint struct {
	transport.Endpoint
	delay time.Duration // added before every Send; set only by tests

	send, recv  time.Duration // time inside Send / Recv
	msgs, bytes int64         // Sends issued and their declared bytes
	longest     time.Duration // longest single Send of this boot
	long        []span        // Sends longer than longSend, in order
}

// longSend is the duration beyond which a Send is kept as a span for the
// stall analysis. A loopback write of the largest ring segment takes a
// few milliseconds; a Send sitting out tcpnet's dial-retry backoff takes
// at least its first 50 ms pause.
const longSend = 40 * time.Millisecond

type span struct{ start, end time.Time }

func (t *timedEndpoint) Send(dst transport.ProcID, tag int, data any, bytes int64) error {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	start := time.Now()
	err := t.Endpoint.Send(dst, tag, data, bytes)
	end := time.Now()
	d := end.Sub(start)
	t.send += d
	t.msgs++
	t.bytes += bytes
	if d > t.longest {
		t.longest = d
	}
	if d > longSend {
		t.long = append(t.long, span{start, end})
	}
	return err
}

func (t *timedEndpoint) Recv(src transport.ProcID, tag int) (*transport.Message, error) {
	start := time.Now()
	m, err := t.Endpoint.Recv(src, tag)
	t.recv += time.Since(start)
	return m, err
}

// layers accumulates one rank's traced time per layer over its steady
// steps. Each field is filled from the benchmark's own calls into that
// layer's public functions.
type layers struct {
	steps     int
	batch     time.Duration // data.Synthetic.Batch
	lossGrad  time.Duration // models.MLP.LossAndGrad
	flatten   time.Duration // tensor.Concat, Vector.Scale, tensor.SplitLike
	allreduce time.Duration // ulfm.AllreduceOpts
	opt       time.Duration // optimizer.SGD.Step
	send      time.Duration // transport Endpoint.Send
	recv      time.Duration // transport Endpoint.Recv
	msgs      int64
	bytes     int64
}

func (l *layers) add(o layers) {
	l.steps += o.steps
	l.batch += o.batch
	l.lossGrad += o.lossGrad
	l.flatten += o.flatten
	l.allreduce += o.allreduce
	l.opt += o.opt
	l.send += o.send
	l.recv += o.recv
	l.msgs += o.msgs
	l.bytes += o.bytes
}

// stopwatch charges the time since its last lap to a layer; it does
// nothing in the untraced run, so end-to-end figures carry no tracing.
type stopwatch struct {
	on bool
	t  time.Time
}

func (s *stopwatch) start() {
	if s.on {
		s.t = time.Now()
	}
}

func (s *stopwatch) lap(into *time.Duration) {
	if !s.on {
		return
	}
	now := time.Now()
	*into += now.Sub(s.t)
	s.t = now
}
