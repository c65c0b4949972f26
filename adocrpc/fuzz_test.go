package adocrpc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// checkAlloc runs parse and fails if it allocated more than a fixed
// allowance (one frame growth chunk, the argument table, slack) plus a
// small multiple of the n bytes the peer actually sent: a parser must
// never size memory by a length the peer merely announced.
func checkAlloc(t *testing.T, n int, parse func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+16*n); got > limit {
		t.Fatalf("allocated %d bytes parsing %d input bytes (limit %d)", got, n, limit)
	}
}

// FuzzReadRequest fuzzes the server's request parser over both shapes
// (plain and delta-extended): no panic, allocation bounded by the input,
// and every accepted request re-encodes to exactly the bytes consumed.
func FuzzReadRequest(f *testing.F) {
	var plain, ext bytes.Buffer
	writeRequest(&plain, "echo", [][]byte{[]byte("x"), nil, bytes.Repeat([]byte("ab"), 100)})
	writeRequestDelta(&ext, "stats", [][]byte{[]byte("node-7")}, 42)
	f.Add(plain.Bytes())
	f.Add(ext.Bytes())
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))            // huge method, no body
	f.Add(binary.BigEndian.AppendUint32(nil, deltaMagic))          // extension cut short
	f.Add(append(appendFrame(nil, []byte("m")), 0, 0, 0xFF, 0xFF)) // implausible argc

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var (
			method  string
			args    [][]byte
			baseSeq uint64
			isExt   bool
			err     error
		)
		checkAlloc(t, len(data), func() { method, args, baseSeq, isExt, err = readRequest(r) })
		if err != nil {
			return
		}
		var again bytes.Buffer
		if isExt {
			writeRequestDelta(&again, method, args, baseSeq)
		} else {
			writeRequest(&again, method, args)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("request re-encodes to %x, parsed from %x", again.Bytes(), consumed)
		}
	})
}

// FuzzReadResponse fuzzes the client's response parsers — the plain
// shape, the delta-extended shape, and the results section both carry —
// over the same bytes: no panic, allocation bounded by the input, and
// every accepted extended response or section re-encodes exactly.
func FuzzReadResponse(f *testing.F) {
	results := [][]byte{[]byte("result"), nil, bytes.Repeat([]byte{7}, 300)}
	var plain, failed, ext bytes.Buffer
	writeResponse(&plain, CodeOK, "", results)
	writeResponse(&failed, CodeUnknownMethod, "no such method", nil)
	section := appendFrames(nil, results)
	writeResponseDelta(&ext, CodeOK, "", dflagDelta, 9, 8, deltaEncode(nil, section, section))
	f.Add(plain.Bytes())
	f.Add(failed.Bytes())
	f.Add(ext.Bytes())
	f.Add(section)
	f.Add(append([]byte{0}, binary.BigEndian.AppendUint32(nil, maxErrMsg+1)...)) // oversized errmsg

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAlloc(t, len(data), func() { readResponse(bytes.NewReader(data)) })

		r := bytes.NewReader(data)
		var d deltaResponse
		var err error
		checkAlloc(t, len(data), func() { d, err = readResponseDelta(r) })
		if err == nil {
			var again bytes.Buffer
			writeResponseDelta(&again, d.code, d.msg, d.dflags, d.seq, d.baseSeq, d.payload)
			if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("extended response re-encodes to %x, parsed from %x", again.Bytes(), consumed)
			}
		}

		var res [][]byte
		checkAlloc(t, len(data), func() { res, err = parseResultsSection(data) })
		if err == nil {
			if again := appendFrames(nil, res); !bytes.Equal(again, data) {
				t.Fatalf("results section re-encodes to %x, parsed from %x", again, data)
			}
		}
	})
}

// FuzzDeltaApply fuzzes delta decoding against a fuzzed base: arbitrary
// deltas never panic, never produce more than base plus literal bytes,
// and allocate in proportion to their inputs; and treating the fuzzed
// delta bytes as a response, encode-then-apply against the base is the
// identity.
func FuzzDeltaApply(f *testing.F) {
	base := []byte("{\"node\":7,\"load\":[0.25,0.50,0.75],\"status\":\"ok\"}")
	next := []byte("{\"node\":7,\"load\":[0.30,0.50,0.75],\"status\":\"ok\"}")
	f.Add(deltaEncode(nil, next, base), base)
	f.Add([]byte{0x80}, base)                            // truncated varint
	f.Add(binary.AppendUvarint(nil, 1<<40), []byte("b")) // copy far past the base
	f.Add([]byte{0, 5, 'a'}, []byte(nil))                // literal past the payload

	f.Fuzz(func(t *testing.T, delta, base []byte) {
		var out []byte
		var err error
		checkAlloc(t, len(delta)+len(base), func() { out, err = deltaApply(delta, base) })
		if err == nil && len(out) > len(base)+len(delta) {
			t.Fatalf("delta of %d bytes against a %d-byte base produced %d bytes", len(delta), len(base), len(out))
		}
		if enc := deltaEncode(nil, delta, base); enc != nil {
			got, err := deltaApply(enc, base)
			if err != nil || !bytes.Equal(got, delta) {
				t.Fatalf("encode/apply round trip: got %x, %v; want %x", got, err, delta)
			}
		}
	})
}
