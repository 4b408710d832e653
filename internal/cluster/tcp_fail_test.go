package cluster

// Lane failures on the TCP backend: a peer that sends a frame which does
// not decode, or that closes its socket in the middle of a frame, must
// fail the transport with an error — Err set, Failed closed, WaitIdle
// returning — instead of panicking a pump or leaving WaitIdle waiting for
// a frame that will never arrive. The tests play the broken peer by
// writing straight into a lane's socket, below the writer.

import (
	"net"
	"strings"
	"testing"
	"time"
)

// rawCodec encodes float64 batches as 8 bytes a value, just enough payload
// encoding for this package's tests; anything else does not decode.
type rawCodec struct{}

func (rawCodec) EncodePayload(p any, dst []byte) (byte, []byte, error) {
	switch p := p.(type) {
	case FlushMarker:
		return FrameFlush, AppendZigzag(dst, int64(p.Seq)), nil
	case AckMsg:
		return FrameAck, AppendZigzag(dst, int64(p.Seq)), nil
	}
	return FrameData, append(dst, 1, 2, 3, 4, 5, 6, 7, 8), nil
}

func (rawCodec) DecodePayload(ftype byte, b []byte) (any, error) {
	if ftype != FrameData || len(b) != 8 {
		return nil, ErrFrameCorrupt
	}
	return b, nil
}

func newFailTCP(t *testing.T) *TCP {
	t.Helper()
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	} else {
		ln.Close()
	}
	tr, err := NewTCPLoopback(2, LatencyModel{}, rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	tr.RegisterHandler(0, func(Message) {})
	tr.RegisterHandler(1, func(Message) {})
	return tr
}

// expectFailure waits for the transport to fail and checks that WaitIdle
// and Close return, all within a deadline.
func expectFailure(t *testing.T, tr *TCP, want string) {
	t.Helper()
	select {
	case <-tr.Failed():
	case <-time.After(10 * time.Second):
		t.Fatal("transport did not fail")
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Err() = %v, want an error mentioning %q", err, want)
	}
	done := make(chan struct{})
	go func() {
		tr.WaitIdle()
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitIdle or Close hung after the lane failed")
	}
}

func TestTCPGarbageFrameFails(t *testing.T) {
	tr := newFailTCP(t)
	// A well-formed envelope around a payload the codec rejects, written
	// where worker 0's frames to worker 1 go.
	garbage := AppendFrame(nil, &Frame{Type: FrameData, From: 0, To: 1, Payload: []byte{0xff}})
	if _, err := tr.lanes[0*2+1].conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	expectFailure(t, tr, "corrupt frame")
}

func TestTCPResetMidFrameFails(t *testing.T) {
	tr := newFailTCP(t)
	// Worker 0's socket to worker 1 breaks after half a frame, and then a
	// batch, counted in flight, is queued on it: it can never arrive.
	frame := AppendFrame(nil, &Frame{Type: FrameData, From: 0, To: 1, Payload: make([]byte, 8)})
	conn := tr.lanes[0*2+1].conn
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 40, Payload: []float64{1}})
	expectFailure(t, tr, "lane 0->1")
}
