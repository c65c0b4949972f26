package obs

import (
	"sort"
	"sync"
	"time"
)

// ConnTable is the live-connection inspection registry: every open
// engine/session registers a handle at birth and unregisters at close,
// and /debug/conns renders the table on demand. Per-connection data
// lives here, NOT in Prometheus labels, so introspection depth never
// explodes metric cardinality.
type ConnTable struct {
	mu     sync.Mutex
	nextID uint64
	conns  map[uint64]*ConnHandle
}

func newConnTable() *ConnTable {
	return &ConnTable{conns: map[uint64]*ConnHandle{}}
}

// ConnConfig is the negotiated shape of a connection as shown to an
// operator. LevelBounds is [min, max].
type ConnConfig struct {
	Version     int    `json:"version"`
	PacketSize  int    `json:"packet_size"`
	BufferSize  int    `json:"buffer_size"`
	LevelBounds [2]int `json:"level_bounds"`
	Mux         bool   `json:"mux"`
	Trace       bool   `json:"trace"`
}

// ConnTransition is the most recent adapt level change on a connection.
type ConnTransition struct {
	At    time.Time `json:"at"`
	From  int       `json:"from"`
	To    int       `json:"to"`
	Cause string    `json:"cause"`
}

// ConnState is one connection's full introspection snapshot, built
// fresh per request.
type ConnState struct {
	ID            uint64     `json:"id"`
	Kind          string     `json:"kind"`
	LocalAddr     string     `json:"local_addr,omitempty"`
	PeerAddr      string     `json:"peer_addr,omitempty"`
	Config        ConnConfig `json:"config"`
	OpenedAt      time.Time  `json:"opened_at"`
	UptimeSeconds float64    `json:"uptime_seconds"`

	// Engine counters and adapt state, filled by the owning engine.
	MsgsSent         int64   `json:"msgs_sent"`
	MsgsReceived     int64   `json:"msgs_received"`
	RawBytesSent     int64   `json:"raw_bytes_sent"`
	WireBytesSent    int64   `json:"wire_bytes_sent"`
	RawBytesRecv     int64   `json:"raw_bytes_received"`
	WireBytesRecv    int64   `json:"wire_bytes_received"`
	CompressionRatio float64 `json:"compression_ratio"`
	// LinkBps is the engine's measured link speed in bytes per second
	// (0 until measured); above the fast cutoff, messages skip
	// compression.
	LinkBps      float64 `json:"link_bps"`
	Level        int     `json:"level"`
	PinRemaining int     `json:"pin_remaining"`
	BypassRun    int     `json:"bypass_run"`

	LastTransition *ConnTransition `json:"last_transition,omitempty"`

	// Streams is the live mux stream count (0 for unmuxed connections).
	Streams int `json:"streams"`
}

// ConnHandle is one registered connection's entry in the table. All
// methods are safe on a nil handle (a no-op stub when no table is
// wired) and for concurrent use. The owning layer mutates it as the
// connection moves through its life: adocnet tags addresses and the
// negotiated config, adocmux the stream counter, gateways/adocrpc the
// kind.
type ConnHandle struct {
	table  *ConnTable
	id     uint64
	opened time.Time

	mu      sync.Mutex
	kind    string
	local   string
	peer    string
	config  ConnConfig
	fill    func(*ConnState)
	streams func() int
}

// Register adds a connection to the table and returns its handle. fill,
// if non-nil, is invoked on every snapshot to populate the engine-owned
// fields (counters, ratio, adapt state); it must be safe to call
// concurrently with the connection's data path. Safe on a nil table
// (returns a nil, still-usable handle).
func (t *ConnTable) Register(kind string, fill func(*ConnState)) *ConnHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	h := &ConnHandle{table: t, id: t.nextID, opened: time.Now(), kind: kind, fill: fill}
	t.conns[h.id] = h
	t.mu.Unlock()
	return h
}

// Len reports how many connections are currently registered.
func (t *ConnTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Get snapshots one connection by ID; ok is false if it is not (or no
// longer) registered.
func (t *ConnTable) Get(id uint64) (ConnState, bool) {
	if t == nil {
		return ConnState{}, false
	}
	t.mu.Lock()
	h := t.conns[id]
	t.mu.Unlock()
	if h == nil {
		return ConnState{}, false
	}
	return h.state(time.Now()), true
}

// List snapshots every registered connection, ordered by ID (oldest
// first).
func (t *ConnTable) List() []ConnState {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	handles := make([]*ConnHandle, 0, len(t.conns))
	for _, h := range t.conns {
		handles = append(handles, h)
	}
	t.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].id < handles[j].id })
	now := time.Now()
	out := make([]ConnState, len(handles))
	for i, h := range handles {
		out[i] = h.state(now)
	}
	return out
}

// ID returns the handle's table-unique connection ID (0 for nil).
func (h *ConnHandle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

// SetKind replaces the connection's kind tag; outer layers (mux,
// gateways, rpc) override the tag of the layer beneath them, so the
// table shows the most specific role.
func (h *ConnHandle) SetKind(kind string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.kind = kind
	h.mu.Unlock()
}

// SetAddrs records the local and peer addresses.
func (h *ConnHandle) SetAddrs(local, peer string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.local, h.peer = local, peer
	h.mu.Unlock()
}

// SetConfig records the negotiated configuration.
func (h *ConnHandle) SetConfig(cfg ConnConfig) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.config = cfg
	h.mu.Unlock()
}

// SetStreams installs the live stream-count callback (mux layer).
func (h *ConnHandle) SetStreams(f func() int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.streams = f
	h.mu.Unlock()
}

// Unregister removes the connection from the table. Idempotent and
// nil-safe.
func (h *ConnHandle) Unregister() {
	if h == nil {
		return
	}
	h.table.mu.Lock()
	delete(h.table.conns, h.id)
	h.table.mu.Unlock()
}

func (h *ConnHandle) state(now time.Time) ConnState {
	h.mu.Lock()
	st := ConnState{
		ID:            h.id,
		Kind:          h.kind,
		LocalAddr:     h.local,
		PeerAddr:      h.peer,
		Config:        h.config,
		OpenedAt:      h.opened,
		UptimeSeconds: now.Sub(h.opened).Seconds(),
	}
	fill, streams := h.fill, h.streams
	h.mu.Unlock()
	// Callbacks run outside h.mu: they read engine/session state that
	// takes its own locks, and holding ours across them invites cycles.
	if fill != nil {
		fill(&st)
	}
	if streams != nil {
		st.Streams = streams()
	}
	return st
}
