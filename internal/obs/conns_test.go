package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestConnTableRegisterListUnregister(t *testing.T) {
	table := NewRegistry().Conns()
	h1 := table.Register("engine", nil)
	h2 := table.Register("adocnet", nil)
	if h1.ID() == 0 || h2.ID() == 0 || h1.ID() == h2.ID() {
		t.Fatalf("bad IDs: %d, %d", h1.ID(), h2.ID())
	}
	if table.Len() != 2 {
		t.Fatalf("Len = %d, want 2", table.Len())
	}

	list := table.List()
	if len(list) != 2 || list[0].ID != h1.ID() || list[1].ID != h2.ID() {
		t.Fatalf("List not ordered by ID: %+v", list)
	}
	if list[0].Kind != "engine" || list[1].Kind != "adocnet" {
		t.Fatalf("kinds: %q, %q", list[0].Kind, list[1].Kind)
	}

	st, ok := table.Get(h2.ID())
	if !ok || st.Kind != "adocnet" {
		t.Fatalf("Get(%d): ok=%v kind=%q", h2.ID(), ok, st.Kind)
	}
	if _, ok := table.Get(999); ok {
		t.Fatal("Get of unknown ID succeeded")
	}

	h1.Unregister()
	h1.Unregister() // idempotent
	if table.Len() != 1 {
		t.Fatalf("Len after unregister = %d, want 1", table.Len())
	}
	if _, ok := table.Get(h1.ID()); ok {
		t.Fatal("unregistered connection still visible")
	}
}

func TestConnHandleEnrichment(t *testing.T) {
	table := NewRegistry().Conns()
	h := table.Register("engine", func(st *ConnState) {
		st.RawBytesSent = 1000
		st.WireBytesSent = 250
		st.CompressionRatio = 4
		st.Level = 3
		st.LastTransition = &ConnTransition{From: 1, To: 3, Cause: "queue-rise"}
	})
	h.SetKind("gateway-ingress")
	h.SetAddrs("127.0.0.1:1111", "127.0.0.1:2222")
	h.SetConfig(ConnConfig{
		Version: 2, PacketSize: 8192, BufferSize: 200_000,
		LevelBounds: [2]int{1, 10}, Mux: true, Trace: true,
	})
	streams := 0
	h.SetStreams(func() int { return streams })
	streams = 7

	st, ok := table.Get(h.ID())
	if !ok {
		t.Fatal("Get failed")
	}
	if st.Kind != "gateway-ingress" {
		t.Errorf("Kind = %q (outer layer should win)", st.Kind)
	}
	if st.LocalAddr != "127.0.0.1:1111" || st.PeerAddr != "127.0.0.1:2222" {
		t.Errorf("addrs: %q -> %q", st.LocalAddr, st.PeerAddr)
	}
	if st.Config.LevelBounds != [2]int{1, 10} || !st.Config.Mux || st.Config.Version != 2 {
		t.Errorf("config: %+v", st.Config)
	}
	if st.Streams != 7 {
		t.Errorf("Streams = %d (callback should be read live)", st.Streams)
	}
	if st.RawBytesSent != 1000 || st.Level != 3 {
		t.Errorf("fill fields missing: %+v", st)
	}
	if st.LastTransition == nil || st.LastTransition.Cause != "queue-rise" {
		t.Errorf("LastTransition: %+v", st.LastTransition)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("UptimeSeconds = %v", st.UptimeSeconds)
	}
	if st.OpenedAt.IsZero() || st.OpenedAt.After(time.Now()) {
		t.Errorf("OpenedAt = %v", st.OpenedAt)
	}
}

func TestConnHandleNilSafe(t *testing.T) {
	var table *ConnTable
	h := table.Register("x", nil)
	if h != nil {
		t.Fatal("nil table should hand out nil handles")
	}
	// All no-ops, no panics.
	h.SetKind("k")
	h.SetAddrs("a", "b")
	h.SetConfig(ConnConfig{})
	h.SetStreams(func() int { return 1 })
	h.Unregister()
	if h.ID() != 0 {
		t.Fatal("nil handle ID")
	}
	if table.Len() != 0 || table.List() != nil {
		t.Fatal("nil table should be empty")
	}
	if _, ok := table.Get(1); ok {
		t.Fatal("nil table Get")
	}
}

func TestConnStateJSONShape(t *testing.T) {
	table := NewRegistry().Conns()
	h := table.Register("adocnet", nil)
	h.SetConfig(ConnConfig{LevelBounds: [2]int{1, 10}})
	st, _ := table.Get(h.ID())
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	// The negotiated bounds render as the documented two-element array —
	// CI's jq assertion depends on this exact shape.
	if !strings.Contains(string(out), `"level_bounds":[1,10]`) {
		t.Fatalf("JSON missing level_bounds array: %s", out)
	}
	for _, key := range []string{`"id"`, `"kind"`, `"config"`, `"uptime_seconds"`, `"link_bps"`, `"streams"`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("JSON missing %s: %s", key, out)
		}
	}
}
