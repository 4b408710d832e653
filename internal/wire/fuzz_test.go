package wire

// FuzzFrameDecode drives arbitrary bytes through the full untrusted-input
// surface: the frame envelope decoder, every payload decoder, and both
// streaming and slice entry points. The invariants:
//
//   - truncated, corrupt, or oversized input returns an error — never a
//     panic and never a runaway allocation (counts are validated against
//     the payload size before any slice is sized);
//   - DecodeFrame and ReadFrame agree on whether a byte string is a frame;
//   - anything that decodes cleanly re-encodes and decodes to the same
//     value (no silent acceptance of half-parsed frames).
//
// Run long with `make fuzz-wire` (30s smoke in CI) or
// `go test ./internal/wire/ -fuzz FuzzFrameDecode`.

import (
	"bufio"
	"bytes"
	"slices"
	"testing"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
)

func FuzzFrameDecode(f *testing.F) {
	// Seed with every golden frame (each frame type, both codecs, the
	// flag/delay envelope variant) plus targeted malformations.
	for _, tc := range goldenCases(f) {
		f.Add(tc.frame)
		if len(tc.frame) > 5 {
			f.Add(tc.frame[:len(tc.frame)/2]) // truncated
			mut := append([]byte{}, tc.frame...)
			mut[5] ^= 0xff // corrupt early body byte
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length prefix > MaxFrameBytes
	f.Add([]byte{0, 0, 0, 7, cluster.FrameData, 0, 0, 0, 0, 0, 0xff})
	// A multi-entry control frame whose count promises one entry more than
	// its body holds.
	f.Add(rawFrame(cluster.FrameCtrl, 0, 1, []byte{3, 1, 2, 4, 0, 6, 8}))

	c64 := NewCodec[float64]()
	c32 := NewCodec[int32]()
	cgob := NewCodec[exoticMsg]()
	vcodec := AutoMsgCodec[float64]()

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := cluster.DecodeFrame(b)

		// ReadFrame must agree with DecodeFrame on the same bytes.
		sf, sn, serr := cluster.ReadFrame(bufio.NewReader(bytes.NewReader(b)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeFrame err %v but ReadFrame err %v", err, serr)
		}
		if err != nil {
			return
		}
		if n != sn || sf.Type != fr.Type || sf.From != fr.From || sf.To != fr.To ||
			sf.Flags != fr.Flags || sf.Declared != fr.Declared || sf.Delay != fr.Delay ||
			!bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("DecodeFrame and ReadFrame disagree: %+v vs %+v", fr, sf)
		}
		if n < 4 || n > len(b) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(b))
		}

		// Payload decoders must never panic, whatever the frame type byte
		// says. A clean decode must survive a re-encode round trip.
		for _, c := range []cluster.PayloadCodec{c64, c32, cgob} {
			payload, err := c.DecodePayload(fr.Type, fr.Payload)
			if err != nil {
				continue
			}
			checkReencode(t, c, fr.Type, payload)
		}
		// The dist protocol decoders take the same untrusted bytes.
		if h, err := DecodeHello(fr.Payload); err == nil {
			reencode(t, "hello", fr.Payload, AppendHello(nil, h))
		}
		if j, err := DecodeJob(fr.Payload); err == nil {
			reencode(t, "job", fr.Payload, AppendJob(nil, j))
		}
		if s, err := DecodeStepStart(fr.Payload); err == nil {
			reencode(t, "step_start", fr.Payload, AppendStepStart(nil, s))
		}
		if s, err := DecodeStepDone(fr.Payload); err == nil {
			reencode(t, "step_done", fr.Payload, AppendStepDone(nil, s))
		}
		if bar, err := DecodeBarrier(fr.Payload); err == nil {
			reencode(t, "barrier", fr.Payload, AppendBarrier(nil, bar))
		}
		if fin, err := DecodeFinish(fr.Payload); err == nil {
			reencode(t, "finish", fr.Payload, AppendFinish(nil, fin))
		}
		if vals, err := DecodeValues(vcodec, fr.Payload); err == nil {
			reencode(t, "values", fr.Payload, AppendValues(nil, vcodec, vals))
		}
	})
}

// FuzzCreditFrame focuses the fuzzer on the Credit frame: the payload is
// a single uvarint, so the interesting corners are truncation, non-minimal
// or overlong varints, and values overflowing int64. The invariants match
// FuzzFrameDecode's — errors never panics, and clean decodes re-encode to
// a byte-level fixed point. Run long with `make fuzz-wire`.
func FuzzCreditFrame(f *testing.F) {
	c64 := NewCodec[float64]()
	seed := encodeFrame(f, c64, cluster.CreditGrant{Bytes: 4096}, cluster.Frame{From: 1, To: 0})
	f.Add(seed)
	for i := 1; i < len(seed); i++ {
		f.Add(seed[:i]) // every truncation
	}
	for i := 4; i < len(seed); i++ {
		mut := append([]byte{}, seed...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	// Overlong varint payload (10 bytes, high bits set): overflows int64.
	f.Add(cluster.AppendFrame(nil, &cluster.Frame{
		Type: cluster.FrameCredit, From: 1, To: 0,
		Payload: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}))
	// Trailing garbage after a valid uvarint.
	f.Add(cluster.AppendFrame(nil, &cluster.Frame{
		Type: cluster.FrameCredit, From: 1, To: 0, Payload: []byte{0x07, 0x00},
	}))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, _, err := cluster.DecodeFrame(b)
		if err != nil {
			return
		}
		for _, c := range []cluster.PayloadCodec{c64, NewCodec[int32]()} {
			payload, err := c.DecodePayload(cluster.FrameCredit, fr.Payload)
			if err != nil {
				continue
			}
			g, ok := payload.(cluster.CreditGrant)
			if !ok || g.Bytes < 0 {
				t.Fatalf("credit decode produced %#v", payload)
			}
			checkReencode(t, c, cluster.FrameCredit, payload)
		}
	})
}

// reencode checks a decoded-then-reencoded payload is at most as long as
// the input it came from (the encoders emit minimal varints, so a decode
// that "accepted" absurd input would show up as growth) and decodes to
// the same bytes' semantics when parsed again.
func reencode(t *testing.T, what string, in, out []byte) {
	t.Helper()
	if len(out) > len(in) {
		t.Fatalf("%s: re-encode grew %d -> %d bytes", what, len(in), len(out))
	}
}

// checkReencode round-trips an engine payload through its codec. The
// fixed point is checked at the byte level (decode → encode → decode →
// encode must produce identical bytes) rather than by value equality,
// which would spuriously reject NaN message payloads (NaN != NaN).
func checkReencode(t *testing.T, c cluster.PayloadCodec, ftype byte, payload any) {
	t.Helper()
	gotType, buf, err := c.EncodePayload(payload, nil)
	if err != nil {
		t.Fatalf("re-encode %T: %v", payload, err)
	}
	if gotType != ftype {
		t.Fatalf("re-encode type %#x, decoded from %#x", gotType, ftype)
	}
	again, err := c.DecodePayload(gotType, buf)
	if err != nil {
		t.Fatalf("re-decode %T: %v", payload, err)
	}
	_, buf2, err := c.EncodePayload(again, nil)
	if err != nil {
		t.Fatalf("re-re-encode %T: %v", again, err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("re-encode is not a fixed point:\n %x\n %x", buf, buf2)
	}
}

// TestFuzzSeedsHealthy keeps the fuzz function honest under plain `go
// test`: every seed must run through the fuzz body without failing, so
// CI exercises the invariants even without -fuzz.
func TestFuzzSeedsHealthy(t *testing.T) {
	for _, tc := range goldenCases(t) {
		fr, _, err := cluster.DecodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c64 := NewCodec[float64]()
		if fr.Type == cluster.FrameData || fr.Type == cluster.FrameCtrl ||
			fr.Type == cluster.FrameFlush || fr.Type == cluster.FrameAck ||
			fr.Type == cluster.FrameCredit {
			// Wrong-codec decodes may error but must not panic.
			_, _ = NewCodec[int32]().DecodePayload(fr.Type, fr.Payload)
			_, _ = c64.DecodePayload(fr.Type, fr.Payload)
		}
	}
	// A ctrl frame decoded by any codec yields the identical entries (the
	// payload has no message values).
	frame := []chandy.Ctrl{{Kind: chandy.ForkMsg, From: 3, To: -1}, {Kind: chandy.TokenMsg, From: 3, To: 8}}
	_, buf, err := NewCodec[float64]().EncodePayload(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCodec[exoticMsg]().DecodePayload(cluster.FrameCtrl, buf)
	if err != nil || !slices.Equal(got.([]chandy.Ctrl), frame) {
		t.Fatalf("cross-codec ctrl decode: %#v, %v", got, err)
	}
	// An empty frame is never sent, so it neither encodes nor decodes.
	if _, _, err := NewCodec[float64]().EncodePayload([]chandy.Ctrl{}, nil); err == nil {
		t.Error("empty control frame encoded")
	}
	if _, err := NewCodec[float64]().DecodePayload(cluster.FrameCtrl, []byte{0}); err == nil {
		t.Error("zero-entry control frame decoded")
	}
}
