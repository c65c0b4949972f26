package adocrpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"adoc/internal/core/bufpool"
)

// The call wire format, layered on one mux stream per call:
//
//	request  = frame(method) argc(4) frame(arg)...
//	response = code(1) frame(errmsg) resultc(4) frame(result)...
//	frame    = len(4) payload
//
// All integers are big-endian. The client half-closes after the request,
// so the server reads a complete, bounded request; the server closes
// after the response. Each side writes its whole message with a single
// Write so large calls reach the engine as spans the adaptive pipeline
// can chew on (and small ones cost one batch, not five).
//
// # Delta extension
//
// A delta-aware client prefixes its request with a sentinel that cannot
// be a legitimate method-frame length, plus the sequence number of the
// newest response it still caches for this method:
//
//	request' = deltaMagic(4) baseSeq(8) frame(method) argc(4) frame(arg)...
//
// A server that understands the extension answers in the extended shape —
// for every code, so the client parses one format per request kind:
//
//	response' = code(1) frame(errmsg) dflags(1) seq(8) baseSeq(8) frame(payload)
//
// payload is the results section (resultc(4) frame(result)...), either
// plain (dflags bit 0 clear) or delta-encoded against the section the
// client announced via baseSeq (bit 0 set, baseSeq echoing the base
// used). seq numbers cacheable (CodeOK) sections; seq 0 means "do not
// cache". A server that predates the extension reads deltaMagic as a
// method-frame length far beyond maxFrame and fails the call loudly —
// mixed deployments surface immediately instead of desynchronizing.

const (
	// maxFrame bounds one argument or result (matrix-sized payloads are
	// legitimate; corrupt lengths are not).
	maxFrame = 1 << 30
	// maxArgs bounds the argument and result counts.
	maxArgs = 4096
	// maxErrMsg bounds an error-message frame. Error strings are written
	// by this package from handler errors; anything larger is corruption,
	// and capping it keeps a hostile response from steering a huge read.
	maxErrMsg = 64 << 10
	// frameChunk is the growth step for frame bodies. Frames are read in
	// bounded increments so a hostile or corrupt length header costs at
	// most one chunk of allocation before the short read surfaces — not
	// an up-front allocation of whatever the header claims (up to 1 GiB).
	frameChunk = 1 << 20
	// deltaMagic marks an extended (delta-aware) request. It exceeds
	// maxFrame, so a pre-extension server parses it as an implausible
	// method length and rejects the call with a clear error.
	deltaMagic = 0xFFFFFFFE
)

// dflags bits in extended responses.
const (
	// dflagDelta marks the payload as a delta against the client's
	// announced base section rather than a plain section.
	dflagDelta = 1 << 0
)

func appendFrame(dst []byte, p []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

func readFrame(r io.Reader) ([]byte, error) {
	return readFrameCapped(r, maxFrame)
}

// readFrameCapped reads one frame whose announced length must not exceed
// limit. The body is read incrementally: the buffer grows by at most
// frameChunk per read, so memory tracks the bytes actually received
// rather than the length the header claims.
func readFrameCapped(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("adocrpc: frame of %d bytes exceeds limit", n)
	}
	return readFrameBody(r, n)
}

func readFrameBody(r io.Reader, n uint32) ([]byte, error) {
	p := make([]byte, 0, min(n, frameChunk))
	for uint32(len(p)) < n {
		step := min(n-uint32(len(p)), frameChunk)
		p = slices.Grow(p, int(step))[:len(p)+int(step)]
		if _, err := io.ReadFull(r, p[uint32(len(p))-step:]); err != nil {
			return nil, fmt.Errorf("adocrpc: truncated frame: %w", err)
		}
	}
	return p, nil
}

// framesLen is the wire size of count(4) frame(p)...
func framesLen(frames [][]byte) int {
	n := 4
	for _, p := range frames {
		n += 4 + len(p)
	}
	return n
}

// appendFrames appends count(4) frame(p)...: a request's arguments, or a
// response's results section — the portion of a response the delta
// extension caches and delta-encodes as a unit.
func appendFrames(dst []byte, frames [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(frames)))
	for _, p := range frames {
		dst = appendFrame(dst, p)
	}
	return dst
}

// readFrames reads count(4) frame(p)... as appendFrames writes it; what
// names the frames in errors.
func readFrames(r io.Reader, what string) ([][]byte, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(cnt[:])
	if n > maxArgs {
		return nil, fmt.Errorf("adocrpc: %d %s is not plausible", n, what)
	}
	frames := make([][]byte, n)
	for i := range frames {
		var err error
		if frames[i], err = readFrame(r); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// requestBuf returns frame(method) argc(4) frame(arg)... behind head
// bytes that the caller fills in, in one pooled buffer for writePooled.
func requestBuf(head int, method string, args [][]byte) []byte {
	buf := bufpool.Get(head + 4 + len(method) + framesLen(args))[:head]
	buf = appendFrame(buf, []byte(method))
	return appendFrames(buf, args)
}

// writePooled sends buf, taken from bufpool, as one Write and returns it
// to the pool. An io.Writer does not retain what it is given (a mux
// stream copies it into its session's batch), so nothing still refers
// to buf.
func writePooled(w io.Writer, buf []byte) error {
	_, err := w.Write(buf)
	bufpool.Put(buf)
	return err
}

// writeRequest sends method(args) as one Write.
func writeRequest(w io.Writer, method string, args [][]byte) error {
	return writePooled(w, requestBuf(0, method, args))
}

// writeRequestDelta sends an extended request announcing the newest
// cached response section for this method (baseSeq 0 when none).
func writeRequestDelta(w io.Writer, method string, args [][]byte, baseSeq uint64) error {
	buf := requestBuf(4+8, method, args)
	binary.BigEndian.PutUint32(buf, deltaMagic)
	binary.BigEndian.PutUint64(buf[4:], baseSeq)
	return writePooled(w, buf)
}

// readRequest receives one call's method and arguments. ext reports
// whether the client spoke the delta extension (in which case baseSeq is
// the response sequence it announced as a delta base) — it is meaningful
// even when err is non-nil, so error responses use the right shape.
func readRequest(r io.Reader) (method string, args [][]byte, baseSeq uint64, ext bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", nil, 0, false, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == deltaMagic {
		ext = true
		var seq [8]byte
		if _, err := io.ReadFull(r, seq[:]); err != nil {
			return "", nil, 0, true, err
		}
		baseSeq = binary.BigEndian.Uint64(seq[:])
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return "", nil, baseSeq, true, err
		}
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > maxFrame {
		return "", nil, baseSeq, ext, fmt.Errorf("adocrpc: frame of %d bytes exceeds limit", n)
	}
	m, err := readFrameBody(r, n)
	if err != nil {
		return "", nil, baseSeq, ext, err
	}
	if args, err = readFrames(r, "arguments"); err != nil {
		return "", nil, baseSeq, ext, err
	}
	return string(m), args, baseSeq, ext, nil
}

// writeResponse sends a success (CodeOK plus results) or a typed failure
// as one Write.
func writeResponse(w io.Writer, code Code, msg string, results [][]byte) error {
	buf := bufpool.Get(1 + 4 + len(msg) + framesLen(results))[:0]
	buf = append(buf, byte(code))
	buf = appendFrame(buf, []byte(msg))
	buf = appendFrames(buf, results)
	return writePooled(w, buf)
}

// parseResultsSection decodes a results section back into result slices.
// The slices alias b; callers that cache b must not let handlers mutate
// results (the package API already hands callers fresh sections).
func parseResultsSection(b []byte) ([][]byte, error) {
	r := bytes.NewReader(b)
	results, err := readFrames(r, "results")
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("adocrpc: %d trailing bytes after results section", r.Len())
	}
	return results, nil
}

// writeResponseDelta sends one extended response as one Write. payload
// is either a plain results section or (dflags&dflagDelta) a delta of
// one against the base section the client announced.
func writeResponseDelta(w io.Writer, code Code, msg string, dflags byte, seq, baseSeq uint64, payload []byte) error {
	buf := bufpool.Get(1 + 4 + len(msg) + 1 + 8 + 8 + 4 + len(payload))[:0]
	buf = append(buf, byte(code))
	buf = appendFrame(buf, []byte(msg))
	buf = append(buf, dflags)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, baseSeq)
	buf = appendFrame(buf, payload)
	return writePooled(w, buf)
}

// deltaResponse is one parsed extended response; payload interpretation
// (plain section vs delta) is the caller's, since applying a delta needs
// the caller's cached base.
type deltaResponse struct {
	code    Code
	msg     string
	dflags  byte
	seq     uint64
	baseSeq uint64
	payload []byte
}

// readResponseDelta receives one extended reply.
func readResponseDelta(r io.Reader) (deltaResponse, error) {
	var d deltaResponse
	var codeByte [1]byte
	if _, err := io.ReadFull(r, codeByte[:]); err != nil {
		return d, err
	}
	d.code = Code(codeByte[0])
	msg, err := readFrameCapped(r, maxErrMsg)
	if err != nil {
		return d, err
	}
	d.msg = string(msg)
	var fixed [17]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return d, err
	}
	d.dflags = fixed[0]
	d.seq = binary.BigEndian.Uint64(fixed[1:9])
	d.baseSeq = binary.BigEndian.Uint64(fixed[9:17])
	if d.payload, err = readFrame(r); err != nil {
		return d, err
	}
	return d, nil
}

// readResponse receives one reply; wire-reported failures come back as
// *RemoteError.
func readResponse(r io.Reader) ([][]byte, error) {
	var codeByte [1]byte
	if _, err := io.ReadFull(r, codeByte[:]); err != nil {
		return nil, err
	}
	msg, err := readFrameCapped(r, maxErrMsg)
	if err != nil {
		return nil, err
	}
	results, err := readFrames(r, "results")
	if err != nil {
		return nil, err
	}
	if code := Code(codeByte[0]); code != CodeOK {
		return nil, &RemoteError{Code: code, Msg: string(msg)}
	}
	return results, nil
}
