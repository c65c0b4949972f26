package testutil

import (
	"encoding/binary"
	"io"
	"net"

	"adoc/internal/codec"
	"adoc/internal/wire"
)

// ClearHandshakeBits wraps c so that the first adocnet handshake frame
// written through it and the first one read from it lose the given
// capability flag bits and codec mask bits. Both ends of the connection
// then negotiate exactly as they would against a build that never
// advertised them — an older peer, or a foreign one — while this build
// keeps offering its fixed capabilities. Everything after the handshake
// passes through untouched.
func ClearHandshakeBits(c net.Conn, flags uint16, codecs codec.Mask) net.Conn {
	return &bitClearConn{Conn: c, flags: flags, codecs: uint16(codecs)}
}

type bitClearConn struct {
	net.Conn
	flags, codecs uint16

	wrote   bool   // Write side: the outgoing handshake was rewritten
	read    bool   // Read side: the incoming handshake was rewritten
	pending []byte // rewritten incoming frame not yet returned by Read
}

// frameHeaderLen is the handshake envelope before the payload: message
// header plus the two-byte payload length.
const frameHeaderLen = wire.MsgHeaderLen + 2

func (c *bitClearConn) Write(p []byte) (int, error) {
	if c.wrote || len(p) < frameHeaderLen || wire.Kind(p[3]) != wire.KindHandshake {
		return c.Conn.Write(p)
	}
	c.wrote = true
	q := append([]byte(nil), p...)
	c.clear(q)
	if _, err := c.Conn.Write(q); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *bitClearConn) Read(p []byte) (int, error) {
	if !c.read {
		c.read = true
		frame := make([]byte, frameHeaderLen)
		if _, err := io.ReadFull(c.Conn, frame); err != nil {
			return 0, err
		}
		if wire.Kind(frame[3]) == wire.KindHandshake {
			frame = append(frame, make([]byte, binary.BigEndian.Uint16(frame[wire.MsgHeaderLen:]))...)
			if _, err := io.ReadFull(c.Conn, frame[frameHeaderLen:]); err != nil {
				return 0, err
			}
			c.clear(frame)
		}
		c.pending = frame
	}
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// clear drops the bits from one handshake frame in place. The payload
// is minVer(1) maxVer(1) packetSize(4) bufferSize(4) minLevel(1)
// maxLevel(1) flags(2) codecMask(2); shorter legacy payloads lack the
// trailing words, and a missing word has no bits to clear.
func (c *bitClearConn) clear(frame []byte) {
	payload := frame[frameHeaderLen:]
	clearWord := func(off int, bits uint16) {
		if len(payload) >= off+2 {
			binary.BigEndian.PutUint16(payload[off:], binary.BigEndian.Uint16(payload[off:])&^bits)
		}
	}
	clearWord(12, c.flags)
	clearWord(14, c.codecs)
}
