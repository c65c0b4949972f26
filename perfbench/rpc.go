package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc/adocrpc"
)

// rpcMix: requests of 64 B to 64 KB.
var rpcMix = mix{
	minSize: 64, maxSize: 64 << 10,
	strata: 64, blocks: 4, poolSize: 1 << 20,
	warmSize: 64,
}

const (
	rpcMethod      = "bench.echo"
	rpcHeaderLen   = 256
	rpcReqHdrLen   = 12 // op index (8) + parent span id (4)
	rpcCallTimeout = 10 * time.Second
)

// rpcRespHeader is the header section the handler returns ahead of the
// echoed body: the op index, the body's length and CRC, then filler that
// depends on all three.
func rpcRespHeader(dst []byte, op uint64, body []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	for len(dst) < rpcHeaderLen {
		dst = fmt.Appendf(dst, "%016x;", op*0x9e3779b97f4a7c15+uint64(len(dst)))
	}
	return dst[:rpcHeaderLen]
}

// rpcStack is an adocrpc.Pool with default configuration calling an
// adocrpc.Server over loopback TCP.
type rpcStack struct {
	in   *inputs
	ln   net.Listener
	srv  *adocrpc.Server
	pool *adocrpc.Pool
	sock *sockCounters
	tr   atomic.Pointer[tracer] // spans for the handler; set per measured window
	wg   sync.WaitGroup
}

func newRPC(in *inputs, sock *sockCounters) (*rpcStack, error) {
	s := &rpcStack{in: in, sock: sock}
	s.srv = adocrpc.NewServer(adocrpc.ServerConfig{})
	s.srv.Register(rpcMethod, s.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln)
	}()
	addr := ln.Addr().String()
	s.pool, err = adocrpc.NewPool(adocrpc.PoolConfig{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: c, c: sock}, nil
		},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *rpcStack) setTracer(tr *tracer) { s.tr.Store(tr) }

// handle is the registered handler: it returns the response header and
// echoes the body.
func (s *rpcStack) handle(_ context.Context, args [][]byte) ([][]byte, error) {
	t0 := time.Now()
	if len(args) != 2 || len(args[0]) != rpcReqHdrLen {
		return nil, errors.New("malformed request")
	}
	op := binary.BigEndian.Uint64(args[0])
	parent := int32(binary.BigEndian.Uint32(args[0][8:]))
	out := [][]byte{rpcRespHeader(make([]byte, 0, rpcHeaderLen+24), op, args[1]), args[1]}
	s.tr.Load().add("handler", int64(op), parent, t0, time.Now())
	return out, nil
}

func (s *rpcStack) do(_, i int, tr *tracer, parent int32) (int64, error) {
	body := s.in.payload(i)
	hdr := make([]byte, rpcReqHdrLen)
	binary.BigEndian.PutUint64(hdr, uint64(i))
	binary.BigEndian.PutUint32(hdr[8:], uint32(parent))
	ctx, cancel := context.WithTimeout(context.Background(), rpcCallTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := s.pool.Call(ctx, rpcMethod, [][]byte{hdr, body})
	tr.add("adocrpc.Pool.Call", int64(i), parent, t0, time.Now())
	if err != nil {
		return 0, fmt.Errorf("call: %w", err)
	}
	if len(res) != 2 {
		return 0, fmt.Errorf("%d result sections, want 2", len(res))
	}
	if !bytes.Equal(res[0], rpcRespHeader(nil, uint64(i), body)) {
		return 0, errors.New("response header differs from the expected one")
	}
	if !bytes.Equal(res[1], body) {
		return 0, fmt.Errorf("echoed body differs (%d bytes, sent %d)", len(res[1]), len(body))
	}
	return int64(len(body)), nil
}

func (s *rpcStack) counters() layerSnap {
	return layerSnap{sock: s.sock.snap(), eng: s.pool.Stats(), sessions: s.pool.NumSessions()}
}

func (s *rpcStack) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.srv.Close()
	s.ln.Close()
	s.wg.Wait()
}
