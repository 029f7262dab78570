package tcpnet

// Internal tests for the transport's live metrics: the instrumentation
// on the send path must stay allocation-free (it rides inside the data
// plane the paper benchmarks), and a real loopback exchange must move
// every counter the /metrics endpoint exports for the transport.

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestSendPathInstrumentationAllocFree pins the allocation cost of every
// metric operation Send, writeToPeer, readLoop, and the frame pool
// perform: zero. This is the "instrumentation on, nothing watching"
// configuration every worker runs in — a regression here taxes each frame
// of each collective.
func TestSendPathInstrumentationAllocFree(t *testing.T) {
	t0 := time.Now()
	ops := map[string]func(){
		"tx frame":      func() { obsTxFrames.Inc(); obsTxBytes.Add(4096) },
		"rx frame":      func() { obsRxFrames.Inc(); obsRxBytes.Add(4096) },
		"flush latency": func() { obsWriteFlush.ObserveSince(t0) },
		"pool checkout": func() { obsFramePoolGets.Inc() },
		"dial retry":    func() { obsDialRetries.Inc() },
		"send error":    func() { obsSendErrors.Inc() },
		"send abort":    func() { obsSendAborts.Inc() },
	}
	for name, fn := range ops {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s instrumentation: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestTransportMetricsMove sends real frames over loopback TCP and
// asserts each counter advanced by at least the exchanged frame count.
// The registry is process-global and other tests also send frames, so
// deltas (not absolute values) are compared.
func TestTransportMetricsMove(t *testing.T) {
	cfg := Config{DialRetries: 4, DialBackoff: 10 * time.Millisecond, DialTimeout: time.Second}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	defer b.Close()
	peers := map[transport.ProcID]string{0: a.Addr(), 1: b.Addr()}
	a.Start(0, peers)
	b.Start(1, peers)

	txFrames0 := obsTxFrames.Value()
	txBytes0 := obsTxBytes.Value()
	rxFrames0 := obsRxFrames.Value()
	dials0 := obsDials.Value()
	poolGets0 := obsFramePoolGets.Value()
	flushCount0 := obsWriteFlush.Count()

	const n = 8
	for i := 0; i < n; i++ {
		if err := a.Send(1, 7, []float32{1, 2, 3}, 12); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := b.Recv(0, 7); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}

	if d := obsTxFrames.Value() - txFrames0; d < n {
		t.Errorf("tx frames delta = %d, want >= %d", d, n)
	}
	if d := obsTxBytes.Value() - txBytes0; d < n*(4+frameHeaderLen) {
		t.Errorf("tx bytes delta = %d, want >= %d", d, n*(4+frameHeaderLen))
	}
	if d := obsRxFrames.Value() - rxFrames0; d < n {
		t.Errorf("rx frames delta = %d, want >= %d", d, n)
	}
	if d := obsDials.Value() - dials0; d < 1 {
		t.Errorf("dials delta = %d, want >= 1", d)
	}
	if d := obsFramePoolGets.Value() - poolGets0; d < n {
		t.Errorf("frame pool gets delta = %d, want >= %d", d, n)
	}
	if d := obsWriteFlush.Count() - flushCount0; d < n {
		t.Errorf("write flush observations delta = %d, want >= %d", d, n)
	}
}

// TestSendErrorCounted verifies the error path is metered: a send to an
// unreachable peer must land in tcpnet_send_errors_total once the dial
// retries are exhausted.
func TestSendErrorCounted(t *testing.T) {
	cfg := Config{DialRetries: 0, DialBackoff: time.Millisecond, DialTimeout: 50 * time.Millisecond}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer a.Close()
	// Port 1 on loopback: nothing listens there, dial fails fast.
	a.Start(0, map[transport.ProcID]string{0: a.Addr(), 1: "127.0.0.1:1"})

	errs0 := obsSendErrors.Value()
	if err := a.Send(1, 7, []float32{1}, 4); err == nil {
		t.Fatal("send to dead peer succeeded, want failure")
	}
	if d := obsSendErrors.Value() - errs0; d < 1 {
		t.Errorf("send errors delta = %d, want >= 1", d)
	}
}
