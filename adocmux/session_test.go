package adocmux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adoc/adocnet"
	"adoc/internal/testutil"
	"adoc/internal/wire"
)

// sessionPair returns client and server sessions joined by a real TCP
// loopback connection negotiated with TransportOptions.
func sessionPair(t *testing.T, tune func(*adocnet.Options)) (*Session, *Session) {
	t.Helper()
	opts := TransportOptions()
	if tune != nil {
		tune(&opts)
	}
	ln, err := adocnet.Listen("tcp", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   *adocnet.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cliConn, err := adocnet.Dial("tcp", ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	cli, err := Client(cliConn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Server(srv.c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); sess.Close() })
	return cli, sess
}

// compressible returns n bytes of repetitive-but-not-trivial data,
// seeded so each stream carries distinct bytes.
func compressible(n int, seed int64) []byte {
	line := fmt.Sprintf("stream %d ships adaptive online compressed frames over the shared session\n", seed)
	b := []byte(strings.Repeat(line, n/len(line)+1))[:n]
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+256 <= len(b); i += 16 * 1024 {
		rng.Read(b[i : i+256])
	}
	return b
}

func TestMuxRequiresNegotiatedCapability(t *testing.T) {
	ln, err := adocnet.Listen("tcp", "127.0.0.1:0", TransportOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	}()
	// The listener's end looks like a build that predates the mux
	// capability to both handshakes.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := adocnet.Handshake(testutil.ClearHandshakeBits(raw, wire.HandshakeFlagMux, 0), TransportOptions())
	if err != nil {
		raw.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Client(conn, Config{}); !errors.Is(err, ErrMuxNotNegotiated) {
		t.Fatalf("Client on legacy-negotiated conn: err = %v, want ErrMuxNotNegotiated", err)
	}
}

func TestStreamEchoRoundtrip(t *testing.T) {
	cli, srv := sessionPair(t, nil)

	// Server: echo every accepted stream.
	go func() {
		for {
			st, err := srv.AcceptStream()
			if err != nil {
				return
			}
			go func() {
				io.Copy(st, st)
				st.Close()
			}()
		}
	}()

	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello through the multiplexed adaptive connection")
	if _, err := st.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
	st.Close()
}

// TestManyStreamsByteIdentity is the session half of the acceptance
// scenario: 32 concurrent streams move 20 MB total in both directions,
// byte-identically, at Parallelism 1 and 4 — and the compressible
// traffic costs fewer wire bytes than payload bytes.
func TestManyStreamsByteIdentity(t *testing.T) {
	const (
		streams = 32
		total   = 20 << 20
		per     = total / streams
	)
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			t.Parallel()
			// Negotiate a compression floor of LZF: loopback TCP is
			// faster than any compressor, so the adaptive controller
			// would (correctly) settle at level 0 and the wire-byte
			// assertion below would be vacuous.
			cli, srv := sessionPair(t, func(o *adocnet.Options) {
				o.Parallelism = par
				o.MinLevel = 1
			})

			// Server: echo.
			go func() {
				for {
					st, err := srv.AcceptStream()
					if err != nil {
						return
					}
					go func() {
						io.Copy(st, st)
						st.CloseWrite()
					}()
				}
			}()

			var wg sync.WaitGroup
			errs := make(chan error, streams)
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, err := cli.OpenStream()
					if err != nil {
						errs <- err
						return
					}
					defer st.Close()
					want := compressible(per, int64(i))
					go func() {
						st.Write(want)
						st.CloseWrite()
					}()
					got, err := io.ReadAll(st)
					if err != nil {
						errs <- fmt.Errorf("stream %d: %w", i, err)
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("stream %d: echoed bytes differ", i)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// All streams share one engine; its aggregate send must have
			// compressed: wire bytes below payload bytes.
			s := cli.Stats()
			if s.RawSent < int64(total) {
				t.Fatalf("RawSent = %d, want >= %d", s.RawSent, total)
			}
			if s.WireSent >= s.RawSent {
				t.Errorf("WireSent = %d >= RawSent = %d: compressible mux traffic did not compress", s.WireSent, s.RawSent)
			}
		})
	}
}

// TestStalledStreamDoesNotBlockSiblings is the flow-control acceptance
// criterion: a stream whose consumer never reads blocks its own writer
// once the credit window is spent — and nothing else.
func TestStalledStreamDoesNotBlockSiblings(t *testing.T) {
	cli, srv := sessionPair(t, nil)

	type accepted struct{ st *Stream }
	acceptCh := make(chan accepted, 2)
	go func() {
		for {
			st, err := srv.AcceptStream()
			if err != nil {
				return
			}
			acceptCh <- accepted{st}
		}
	}()

	// Stream A: the server never reads it.
	stalled, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	<-acceptCh // accepted but never read

	// Its writer must block after the initial window is exhausted.
	wrote := make(chan int, 1)
	go func() {
		n, _ := stalled.Write(bytes.Repeat([]byte("x"), 2*InitialWindow))
		wrote <- n
	}()

	// Stream B: opened after A wedges, and it must still flow freely.
	live, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	peer := (<-acceptCh).st
	go func() {
		io.Copy(peer, peer)
		peer.CloseWrite()
	}()

	payload := compressible(4<<20, 7)
	done := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(live)
		done <- got
	}()
	if _, err := live.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := live.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if !bytes.Equal(got, payload) {
			t.Fatal("sibling stream corrupted while another stream was stalled")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sibling stream starved behind a stalled stream")
	}

	// The stalled writer really is stalled (window spent, no more).
	select {
	case n := <-wrote:
		t.Fatalf("stalled writer finished (%d bytes) without the peer reading", n)
	default:
	}
	// And unblocks once the session dies.
	cli.Close()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled writer not released by session close")
	}
}

// TestHalfClose checks CloseWrite leaves the other direction open: the
// client FINs its request, then still reads the full response.
func TestHalfClose(t *testing.T) {
	cli, srv := sessionPair(t, nil)
	response := compressible(1<<20, 99)

	go func() {
		st, err := srv.AcceptStream()
		if err != nil {
			return
		}
		// Read the whole request first — possible only if the client's
		// FIN arrived — then answer.
		req, err := io.ReadAll(st)
		if err != nil || len(req) == 0 {
			st.Close()
			return
		}
		st.Write(response)
		st.Close()
	}()

	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("GET /everything")); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("late")); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("write after CloseWrite: err = %v, want ErrStreamClosed", err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, response) {
		t.Fatal("response corrupted after half-close")
	}
}

// TestCloseRefundsCredit: a peer writing into a stream the local side
// closed must not wedge — discarded data has its credit returned.
func TestCloseRefundsCredit(t *testing.T) {
	cli, srv := sessionPair(t, nil)

	go func() {
		st, err := srv.AcceptStream()
		if err != nil {
			return
		}
		st.Close() // server wants nothing from this stream
	}()

	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	// Far more than one window: completes only if credit keeps coming
	// back from the discard path.
	payload := bytes.Repeat([]byte("discard me "), 4*InitialWindow/11)
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(payload)
		done <- err
	}()
	select {
	case err := <-done:
		// Both outcomes are fine — all written, or the stream observed
		// as closed — as long as the writer is not wedged.
		if err != nil && !errors.Is(err, ErrStreamClosed) && !errors.Is(err, ErrSessionClosed) {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer wedged against a closed peer stream")
	}
}

// TestSessionCloseFailsStreams: closing the session unblocks and fails
// every stream operation.
func TestSessionCloseFailsStreams(t *testing.T) {
	cli, srv := sessionPair(t, nil)
	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := st.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read block
	cli.Close()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("read on closed session succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read not released by session close")
	}
	if _, err := cli.OpenStream(); err == nil {
		t.Fatal("OpenStream on closed session succeeded")
	}
	// The stream opened before the close may still surface on the server
	// side; once the queue drains, AcceptStream must report the dead
	// session.
	for i := 0; ; i++ {
		if _, err := srv.AcceptStream(); err != nil {
			break
		}
		if i >= 1 {
			t.Fatal("AcceptStream keeps handing out streams on a dead session")
		}
	}
}

// TestBidirectionalOpen: both sides can initiate streams; IDs never
// collide (odd from the client, even from the server).
func TestBidirectionalOpen(t *testing.T) {
	cli, srv := sessionPair(t, nil)

	fromCli, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	fromSrv, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if fromCli.ID()%2 != 1 || fromSrv.ID()%2 != 0 {
		t.Fatalf("ID parity wrong: client opened %d, server opened %d", fromCli.ID(), fromSrv.ID())
	}

	atSrv, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	atCli, err := cli.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	if atSrv.ID() != fromCli.ID() || atCli.ID() != fromSrv.ID() {
		t.Fatalf("accepted IDs %d/%d, want %d/%d", atSrv.ID(), atCli.ID(), fromCli.ID(), fromSrv.ID())
	}

	// Both directions carry data concurrently.
	check := func(w, r *Stream, seed int64) error {
		want := compressible(256*1024, seed)
		go func() {
			w.Write(want)
			w.CloseWrite()
		}()
		got, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("bytes differ on stream %d", r.ID())
		}
		return nil
	}
	errc := make(chan error, 2)
	go func() { errc <- check(fromCli, atSrv, 1) }()
	go func() { errc <- check(fromSrv, atCli, 2) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseFlushesPendingWrites is the regression test for the
// close-vs-flush race: a payload small enough to be fully enqueued (and
// possibly still in flight) when Close fires must reach the peer anyway.
func TestCloseFlushesPendingWrites(t *testing.T) {
	cli, srv := sessionPair(t, nil)
	got := make(chan []byte, 1)
	go func() {
		st, err := srv.AcceptStream()
		if err != nil {
			got <- nil
			return
		}
		data, _ := io.ReadAll(st)
		got <- data
	}()

	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := compressible(200*1024, 11) // under one window: never blocks
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	cli.Close() // immediately — the queued/in-flight batch must still land

	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatalf("peer got %d bytes, want %d: Close stranded the final batch", len(data), len(payload))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("peer never finished reading")
	}
}

// TestWindowOverrunIsFatal: data beyond the granted credit must be
// treated as a protocol violation, not buffered.
func TestWindowOverrunIsFatal(t *testing.T) {
	cli, srv := sessionPair(t, nil)
	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	_ = st

	// Within budget: accepted.
	if ok, violation := peer.deliverData(make([]byte, InitialWindow)); !ok || violation {
		t.Fatalf("in-budget delivery: accepted=%v violation=%v", ok, violation)
	}
	// One byte beyond the granted credit: violation.
	if _, violation := peer.deliverData([]byte{0}); !violation {
		t.Fatal("overrun delivery not flagged as a violation")
	}
}

// TestConfigClampsFrameDataToWireLimit: a frame size beyond what the
// peer's decoder accepts must be clamped, not shipped as a
// session-fatal frame.
func TestConfigClampsFrameDataToWireLimit(t *testing.T) {
	c := Config{MaxFrameData: wire.MaxMuxFrameLen * 4}.withDefaults()
	if c.MaxFrameData != wire.MaxMuxFrameLen {
		t.Fatalf("MaxFrameData = %d, want clamped to %d", c.MaxFrameData, wire.MaxMuxFrameLen)
	}
}

// TestStreamIDExhaustion: a session that has burned its 31-bit ID space
// reports ErrStreamsExhausted instead of wrapping into the peer's ID
// space (or the reserved ID 0), which would be session-fatal remotely.
func TestStreamIDExhaustion(t *testing.T) {
	cli, _ := sessionPair(t, nil)
	cli.mu.Lock()
	cli.nextID = ^uint32(0) // last odd ID
	cli.mu.Unlock()

	last, err := cli.OpenStream()
	if err != nil {
		t.Fatalf("last ID rejected: %v", err)
	}
	if last.ID() != ^uint32(0) {
		t.Fatalf("last stream ID = %d, want %d", last.ID(), ^uint32(0))
	}
	if _, err := cli.OpenStream(); !errors.Is(err, ErrStreamsExhausted) {
		t.Fatalf("post-exhaustion open: err = %v, want ErrStreamsExhausted", err)
	}
	// The session itself is still alive for existing streams.
	if cli.IsClosed() {
		t.Fatal("ID exhaustion killed the session")
	}
}

// TestReceiveSegmentsKeepByteOrder: frames of assorted sizes land in the
// stream's pooled receive segments — small ones sharing a segment, large
// ones spanning several — and reads of assorted sizes get the bytes back
// in order, every drained segment leaving the queue; Close drops the
// unread rest.
func TestReceiveSegmentsKeepByteOrder(t *testing.T) {
	cli, _ := sessionPair(t, nil)
	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []byte
	for _, n := range []int{1, 100, recvSegMin - 1, recvSegMin + 7, 3, DefaultMaxFrameData, 5000, 2} {
		frame := make([]byte, n)
		rng.Read(frame)
		if accepted, violation := st.deliverData(frame); !accepted || violation {
			t.Fatalf("deliverData(%d bytes) = %v, %v", n, accepted, violation)
		}
		want = append(want, frame...)
	}
	// Every byte is buffered already: a Read that waits has lost some.
	st.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []byte
	for i := 0; len(got) < len(want); i++ {
		p := make([]byte, []int{1, 7, recvSegMin, 10000, 3}[i%5])
		n, err := st.Read(p)
		if err != nil || n == 0 {
			t.Fatalf("Read = %d, %v with %d bytes still to come", n, err, len(want)-len(got))
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read differ from the frames delivered")
	}
	st.mu.Lock()
	left, segs := st.buffered, len(st.recv)
	st.mu.Unlock()
	if left != 0 || segs != 0 {
		t.Fatalf("%d bytes in %d segments left after reading everything", left, segs)
	}

	st.deliverData(make([]byte, 3*recvSegMin))
	st.Close()
	st.mu.Lock()
	left, segs = st.buffered, len(st.recv)
	st.mu.Unlock()
	if left != 0 || segs != 0 {
		t.Fatalf("%d bytes in %d segments left after Close", left, segs)
	}
}
