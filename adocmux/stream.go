package adocmux

import (
	"io"
	"os"
	"sync"
	"time"

	"adoc/internal/core/bufpool"
	"adoc/internal/wire"
)

// recvSegMin is the smallest pooled receive segment a stream takes: a
// frame smaller than the free room in the tail segment starts a segment
// of at least this size, so small frames in a row share one.
const recvSegMin = 4 << 10

// Stream is one logical byte stream of a session: an io.ReadWriteCloser
// with TCP-like half-close. Reads and writes are independent; Read and
// Write each serialize among themselves. Every stream of a session
// shares the session's adaptive controller and compression pipeline —
// there is no per-stream compression state.
type Stream struct {
	id     uint32
	sess   *Session
	origin string // open-frame metadata: the originating client address

	wmu sync.Mutex // serializes writers (order across credit + enqueue)

	mu   sync.Mutex
	cond sync.Cond // readers wait for data/FIN; writers wait for credit

	// recv holds the delivered bytes not yet consumed by Read, in pooled
	// segments: recv[0][recvOff:] is read next, and each segment's
	// length is how far it is filled. recvArr backs a short queue.
	recv       [][]byte
	recvArr    [4][]byte
	recvOff    int
	buffered   int   // unread bytes across recv
	recvEOF    bool  // peer sent FIN
	consumed   int   // bytes read since the last credit grant
	sendWin    int64 // remaining credit toward the peer
	recvBudget int64 // bytes the peer may still send (granted - delivered)
	wclosed    bool  // we sent FIN
	rclosed    bool  // local read side closed (Close)
	err        error // terminal session error

	rdl deadline // read deadline (guarded by mu)
	wdl deadline // write deadline (guarded by mu)
}

// deadline is one direction's timeout state. Setting it only records the
// time; an operation arms a timer just before it waits, so a deadline
// set and cleared around work that never blocks (a request already
// buffered) costs no timer. Expiry is read from the clock: the deadline
// has passed once at is set and not in the future.
type deadline struct {
	at    time.Time   // zero: no deadline
	timer *time.Timer // wakes the waiters at at; nil until one waits
}

// set records t (a zero t clears the deadline) and wakes the stream's
// waiters so they re-check it, or arm a timer for it. Called with st.mu
// held; a writer waiting on the session's batch backpressure must be
// woken by the caller, outside the lock.
func (d *deadline) set(st *Stream, t time.Time) {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.at = t
	st.cond.Broadcast()
}

// expired reports whether the deadline has passed.
func (d *deadline) expired() bool {
	return !d.at.IsZero() && !time.Now().Before(d.at)
}

// arm makes sure a timer wakes the stream's waiters, and the session's
// batch-backpressure waiters, when the deadline passes. Called with st.mu
// held by an operation about to wait; a timer already armed for this
// deadline serves it.
func (d *deadline) arm(st *Stream) {
	if d.at.IsZero() || d.timer != nil {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(time.Until(d.at), func() {
		st.mu.Lock()
		if d.timer == t {
			d.timer = nil // a later wait re-arms if the clock disagrees
		}
		st.cond.Broadcast()
		st.mu.Unlock()
		st.sess.wakeSenders()
	})
	d.timer = t
}

// SetDeadline sets both the read and write deadlines, net.Conn style: a
// zero time clears them, a time in the past expires immediately. Expired
// operations fail with os.ErrDeadlineExceeded (a net.Error with
// Timeout() true) — the stream itself stays healthy and siblings are
// unaffected; extend the deadline to use it again.
func (st *Stream) SetDeadline(t time.Time) error {
	st.mu.Lock()
	st.rdl.set(st, t)
	st.wdl.set(st, t)
	st.mu.Unlock()
	// Writers blocked on the session's batch backpressure wait on the
	// send-side condition; wake them outside the stream lock (the session
	// send lock is always taken first).
	st.sess.wakeSenders()
	return nil
}

// SetReadDeadline sets the deadline for future and pending Read calls.
// Buffered data is still delivered past the deadline; only a Read that
// would block fails with os.ErrDeadlineExceeded.
func (st *Stream) SetReadDeadline(t time.Time) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.rdl.set(st, t)
	return nil
}

// SetWriteDeadline sets the deadline for future and pending Write calls.
// It bounds both waits a writer can block in — peer credit and the
// session's outgoing-batch backpressure; bytes already accepted into the
// batch are not recalled.
func (st *Stream) SetWriteDeadline(t time.Time) error {
	st.mu.Lock()
	st.wdl.set(st, t)
	st.mu.Unlock()
	st.sess.wakeSenders()
	return nil
}

// writeWait is the session's batch-backpressure wait asking about the
// write deadline (it runs under the session send lock, not the stream
// lock): it reports whether the deadline has passed and, if not, arms
// its timer for the wait to come.
func (st *Stream) writeWait() (expired bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wdl.expired() {
		return true
	}
	st.wdl.arm(st)
	return false
}

func newStream(s *Session, id uint32) *Stream {
	st := &Stream{id: id, sess: s, sendWin: InitialWindow, recvBudget: InitialWindow}
	st.cond.L = &st.mu
	st.recv = st.recvArr[:0]
	return st
}

// addRecvBudget records credit this endpoint granted (or refunded), so
// deliverData can tell honored flow control from an overrun.
func (st *Stream) addRecvBudget(delta int64) {
	st.mu.Lock()
	st.recvBudget += delta
	st.mu.Unlock()
}

// ID returns the stream's session-unique identifier (odd for
// client-opened, even for server-opened streams).
func (st *Stream) ID() uint32 { return st.id }

// Session returns the stream's session.
func (st *Stream) Session() *Session { return st.sess }

// Origin returns the origin metadata the opener attached to the stream
// (OpenStreamOrigin), or "" when none was sent. Immutable after open.
func (st *Stream) Origin() string { return st.origin }

// Read fills p with the next bytes of the stream, blocking until at
// least one byte is available, the peer half-closes (io.EOF after the
// buffered bytes drain), or the session dies.
func (st *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	for st.buffered == 0 {
		switch {
		case st.err != nil:
			err := st.err
			st.mu.Unlock()
			return 0, err
		case st.rclosed:
			st.mu.Unlock()
			return 0, ErrStreamClosed
		case st.recvEOF:
			st.mu.Unlock()
			return 0, io.EOF
		case st.rdl.expired():
			st.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		st.rdl.arm(st)
		st.cond.Wait()
	}
	n := st.readBuffered(p)
	st.consumed += n
	grant := 0
	if st.consumed >= st.sess.cfg.Window/2 && !st.recvEOF {
		grant = st.consumed
		st.consumed = 0
		st.recvBudget += int64(grant)
	}
	st.mu.Unlock()
	if grant > 0 {
		// Return the credit outside the stream lock; enqueueCtl never
		// blocks, so the read path cannot wedge behind the send path.
		st.sess.enqueueWindow(st.id, uint32(grant))
	}
	return n, nil
}

// Write sends p on the stream, blocking as flow control demands: each
// chunk needs window credit from the peer (a stalled peer reader stops
// this writer after InitialWindow bytes — and only this writer) and
// space in the session's outgoing batch (backpressure from the
// connection itself).
func (st *Stream) Write(p []byte) (int, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	total := 0
	for len(p) > 0 {
		st.mu.Lock()
		for st.sendWin == 0 && st.err == nil && !st.wclosed && !st.wdl.expired() {
			st.wdl.arm(st)
			st.cond.Wait()
		}
		if st.err != nil {
			err := st.err
			st.mu.Unlock()
			return total, err
		}
		if st.wclosed {
			st.mu.Unlock()
			return total, ErrStreamClosed
		}
		if st.wdl.expired() {
			st.mu.Unlock()
			return total, os.ErrDeadlineExceeded
		}
		take := min(int64(len(p)), st.sendWin, int64(st.sess.cfg.MaxFrameData))
		st.sendWin -= take
		st.mu.Unlock()

		if err := st.sess.enqueueData(st.id, p[:take], st); err != nil {
			if err == os.ErrDeadlineExceeded {
				// The bytes never entered the batch and the stream
				// outlives its deadline: put the credit back.
				st.mu.Lock()
				st.sendWin += take
				st.mu.Unlock()
				return total, err
			}
			// Credit was spent on bytes that will never leave; the
			// session is dead anyway, so no one is counting.
			return total, err
		}
		total += int(take)
		p = p[take:]
	}
	return total, nil
}

// CloseWrite half-closes the stream: a FIN is queued after every write
// so far, the peer's reads drain and then return io.EOF, and further
// local writes fail with ErrStreamClosed. The read direction is
// unaffected — the TCP shutdown(SHUT_WR) of the mux world.
func (st *Stream) CloseWrite() error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.mu.Lock()
	if st.wclosed {
		st.mu.Unlock()
		return nil
	}
	if st.err != nil {
		err := st.err
		st.mu.Unlock()
		return err
	}
	st.wclosed = true
	st.cond.Broadcast()
	st.mu.Unlock()
	var buf [wire.MuxHeaderLen]byte
	if err := st.sess.enqueueCtl(wire.AppendMuxClose(buf[:0], st.id)); err != nil {
		return err
	}
	st.maybeForget()
	return nil
}

// Close closes both directions: CloseWrite semantics plus the read side
// shuts down. Buffered and future incoming data is discarded with its
// credit returned, so a peer mid-write does not wedge against a stream
// nobody reads.
func (st *Stream) Close() error {
	err := st.CloseWrite()
	st.mu.Lock()
	if st.rclosed {
		st.mu.Unlock()
		return err
	}
	st.rclosed = true
	refund := st.consumed + st.buffered
	st.consumed = 0
	st.releaseBuffered()
	eof := st.recvEOF
	if !eof {
		st.recvBudget += int64(refund)
	}
	st.cond.Broadcast()
	st.mu.Unlock()
	if refund > 0 && !eof {
		st.sess.enqueueWindow(st.id, uint32(refund))
	}
	st.maybeForget()
	return err
}

// maybeForget retires the stream from the session table once no frame
// can matter anymore: our FIN is out, and the read side is finished
// (peer FIN seen or locally closed). Late data frames for a forgotten
// stream hit the session's dead-stream path, which refunds their credit.
func (st *Stream) maybeForget() {
	st.mu.Lock()
	dead := st.wclosed && (st.recvEOF || st.rclosed)
	if dead {
		// Disarm pending deadline timers; nothing will wait on this
		// stream again.
		st.rdl.set(st, time.Time{})
		st.wdl.set(st, time.Time{})
	}
	st.mu.Unlock()
	if dead {
		st.sess.forget(st.id)
	}
}

// deliverData appends incoming bytes to the receive buffer. accepted is
// false when the read side is closed (the caller refunds the credit);
// violation reports bytes beyond the credit this endpoint granted —
// session-fatal, because honoring them would unbound the buffering that
// flow control exists to bound.
func (st *Stream) deliverData(p []byte) (accepted, violation bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.rclosed || st.recvEOF {
		return false, false
	}
	st.recvBudget -= int64(len(p))
	if st.recvBudget < 0 {
		return false, true
	}
	st.buffer(p)
	st.cond.Broadcast()
	return true, false
}

// buffer copies p behind the unread bytes: into the free room of the
// tail segment, then into a new pooled one. Called with st.mu held.
func (st *Stream) buffer(p []byte) {
	st.buffered += len(p)
	if n := len(st.recv); n > 0 {
		tail := st.recv[n-1]
		c := copy(tail[len(tail):cap(tail)], p)
		st.recv[n-1] = tail[:len(tail)+c]
		p = p[c:]
	}
	if len(p) > 0 {
		seg := bufpool.Get(max(len(p), recvSegMin))[:len(p)]
		copy(seg, p)
		st.recv = append(st.recv, seg)
	}
}

// readBuffered copies unread bytes into p, returning each segment it
// drains to the pool. Called with st.mu held.
func (st *Stream) readBuffered(p []byte) int {
	n := 0
	for n < len(p) && len(st.recv) > 0 {
		seg := st.recv[0]
		c := copy(p[n:], seg[st.recvOff:])
		n += c
		st.recvOff += c
		if st.recvOff == len(seg) {
			bufpool.Put(seg)
			st.popSegment()
		}
	}
	st.buffered -= n
	return n
}

// popSegment drops the head segment from the queue. Called with st.mu
// held.
func (st *Stream) popSegment() {
	k := copy(st.recv, st.recv[1:])
	st.recv[k] = nil
	st.recv = st.recv[:k]
	st.recvOff = 0
}

// releaseBuffered returns every segment to the pool, discarding the
// unread bytes. Called with st.mu held.
func (st *Stream) releaseBuffered() {
	for _, seg := range st.recv {
		bufpool.Put(seg)
	}
	clear(st.recv)
	st.recv = st.recv[:0]
	st.recvOff = 0
	st.buffered = 0
}

// deliverFIN marks the peer's write half closed.
func (st *Stream) deliverFIN() {
	st.mu.Lock()
	st.recvEOF = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.maybeForget()
}

// deliverCredit adds window credit granted by the peer.
func (st *Stream) deliverCredit(delta int64) {
	st.mu.Lock()
	st.sendWin += delta
	st.cond.Broadcast()
	st.mu.Unlock()
}

// sessionFailed unblocks everything with the session's terminal error.
func (st *Stream) sessionFailed(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.rdl.set(st, time.Time{})
	st.wdl.set(st, time.Time{})
	st.cond.Broadcast()
	st.mu.Unlock()
}
