package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestReservedGroupMarkerRejected: stream marker 5 opened dictionary
// groups in older builds. This build never negotiates them, so the marker
// is a protocol error rather than a frame to guess the length of.
func TestReservedGroupMarkerRejected(t *testing.T) {
	// The old frame: marker, a valid level, a 4-byte generation.
	frame := []byte{5, 6, 0, 0, 0, 1}
	_, err := NewReader(bytes.NewReader(frame)).ReadFrame()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("marker 5: err = %v, want ErrBadFrame", err)
	}
}

// TestReservedMuxKindSkipped: mux kind 6 carried dictionaries in older
// builds. Like any unknown kind it is skipped through its length field at
// every chunking, session-scoped or not, and the frames around it decode
// untouched.
func TestReservedMuxKindSkipped(t *testing.T) {
	for _, id := range []uint32{0, 3} {
		var buf []byte
		buf = AppendMuxData(buf, 1, []byte("before"))
		body := binary.BigEndian.AppendUint32(nil, 7) // the old generation prefix
		body = append(body, bytes.Repeat([]byte("recent traffic "), 40)...)
		buf = appendMuxHeader(buf, 6, id, len(body))
		buf = append(buf, body...)
		buf = AppendMuxData(buf, 1, []byte("after"))
		for _, step := range []int{0, 1, 4, 9, 13, 1000} {
			got, err := collect(t, buf, step)
			if err != nil {
				t.Fatalf("stream %d step %d: %v", id, step, err)
			}
			if len(got) != 2 {
				t.Fatalf("stream %d step %d: decoded %d frames, want 2", id, step, len(got))
			}
			if !bytes.Equal(got[0].Payload, []byte("before")) || !bytes.Equal(got[1].Payload, []byte("after")) {
				t.Fatalf("stream %d step %d: frames around kind 6 changed: %+v", id, step, got)
			}
		}
	}
}
