package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/datagen"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// bypassOptions forces compression on (MinLevel 6) over full-size buffers
// so every adaptation buffer would hit DEFLATE without the entropy probe.
func bypassOptions(parallelism int) Options {
	o := DefaultOptions()
	o.MinLevel = 6
	o.MaxLevel = 6
	o.Parallelism = parallelism
	o.DisableProbe = true
	return o
}

// maxFramingOverhead bounds the wire bytes a stream message may add on top
// of its raw payload when every group ships raw: stream header + msgEnd
// plus per-group and per-packet framing, derived from the wire constants.
func maxFramingOverhead(rawLen, bufferSize, packetSize int) int64 {
	groups := (rawLen + bufferSize - 1) / bufferSize
	packets := (rawLen + packetSize - 1) / packetSize
	return int64(wire.StreamHeaderLen + wire.FrameMsgEndLen +
		groups*(wire.FrameGroupBeginLen+wire.FrameGroupEndLen+wire.FramePacketOverhead) +
		packets*wire.FramePacketOverhead)
}

// TestEntropyBypassShipsRawGroups: incompressible buffers cross the wire
// as raw-copy groups even when the level bounds force compression, the
// controller records the bypasses, and the wire never exceeds the raw
// size by more than the framing overhead.
func TestEntropyBypassShipsRawGroups(t *testing.T) {
	for _, par := range []int{1, 4} {
		name := map[int]string{1: "sequential", 4: "parallel4"}[par]
		t.Run(name, func(t *testing.T) {
			opts := bypassOptions(par)
			e1, e2 := pipePair(t, opts)
			data := datagen.Incompressible(2<<20, 99)
			got := sendRecv(t, e1, e2, data)
			if !bytes.Equal(got, data) {
				t.Fatal("roundtrip mismatch")
			}
			st := e1.Stats()
			if st.Controller.EntropyBypasses == 0 {
				t.Fatal("no entropy bypasses recorded on pure random data")
			}
			allowed := maxFramingOverhead(len(data), opts.BufferSize, opts.PacketSize)
			if st.WireSent > st.RawSent+allowed {
				t.Fatalf("wire %d exceeds raw %d + framing bound %d", st.WireSent, st.RawSent, allowed)
			}
		})
	}
}

// TestEntropyBypassLeavesCompressibleAlone: the probe must not fire on
// compressible content — ASCII buffers still compress and the wire stays
// far below raw.
func TestEntropyBypassLeavesCompressibleAlone(t *testing.T) {
	e1, e2 := pipePair(t, bypassOptions(1))
	data := datagen.ASCII(2<<20, 7)
	got := sendRecv(t, e1, e2, data)
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := e1.Stats()
	if st.Controller.EntropyBypasses != 0 {
		t.Fatalf("EntropyBypasses = %d on compressible data, want 0", st.Controller.EntropyBypasses)
	}
	if st.WireSent*2 > st.RawSent {
		t.Fatalf("ascii barely compressed: raw %d wire %d", st.RawSent, st.WireSent)
	}
}

// TestEntropyBypassMixedRuns: interleaved compressible/incompressible
// runs bypass only the incompressible stretch. Compression is forced
// (bypassOptions) so every buffer's classification is content-determined
// rather than timing-determined — the adaptive run-pin dynamics have
// their own deterministic coverage in TestClassifyProbesAtLevelZero and
// the adapt suite.
func TestEntropyBypassMixedRuns(t *testing.T) {
	e1, e2 := pipePair(t, bypassOptions(1))
	data := datagen.Interleaved(4<<20, 11, 512*1024)
	got := sendRecv(t, e1, e2, data)
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := e1.Stats()
	if st.Controller.EntropyBypasses == 0 {
		t.Fatal("mixed content produced no bypasses")
	}
	// The compressible runs must still have been compressed: the wire
	// cannot have paid full price for the whole message.
	if st.WireSent >= st.RawSent {
		t.Fatalf("mixed content did not compress at all: raw %d wire %d", st.RawSent, st.WireSent)
	}
}

// TestClassifyProbesAtLevelZero pins the bypass-pin release path: the
// probe must classify buffers even when the controller's level is 0 —
// that is the only way a run-pinned connection (level forced to the
// minimum) can ever see "compressible again" and release the pin. A
// probe gated on level > 0 makes the pin permanent once Min is 0.
func TestClassifyProbesAtLevelZero(t *testing.T) {
	e, _ := pipePair(t, bypassOptions(1))
	random := datagen.Incompressible(200*1024, 1)
	ascii := datagen.ASCII(200*1024, 2)

	if _, class := e.classifyBuffer(0, random); class != classIncompressible {
		t.Fatalf("random at level 0 classified %d, want classIncompressible", class)
	}
	if _, class := e.classifyBuffer(0, ascii); class != classCompressible {
		t.Fatalf("ascii at level 0 classified %d, want classCompressible", class)
	}

	// The full release cycle against the controller: two bypasses engage
	// the run pin, a compressible buffer seen at the pinned level 0
	// releases it.
	e.ctrl.NoteEntropyBypass()
	e.ctrl.NoteEntropyBypass()
	if got := e.ctrl.Snapshot().BypassRun; got < 2 {
		t.Fatalf("BypassRun = %d after two bypasses", got)
	}
	_, class := e.classifyBuffer(0, ascii)
	e.noteContent(class)
	if got := e.ctrl.Snapshot().BypassRun; got != 0 {
		t.Fatalf("BypassRun = %d after compressible content at level 0, want 0 (pin released)", got)
	}
	// And an incompressible buffer at level 0 keeps the run alive without
	// counting a bypass (nothing was skipped).
	before := e.ctrl.Stats().EntropyBypasses
	e.ctrl.NoteEntropyBypass()
	e.ctrl.NoteEntropyBypass()
	_, class = e.classifyBuffer(0, random)
	e.noteContent(class)
	if got := e.ctrl.Snapshot().BypassRun; got < 2 {
		t.Fatalf("BypassRun = %d after incompressible content at level 0, want run intact", got)
	}
	if got := e.ctrl.Stats().EntropyBypasses; got != before+2 {
		t.Fatalf("EntropyBypasses = %d, want %d (level-0 incompressible buffers are not bypasses)", got, before+2)
	}
}

// TestAlternatingContentNeverPins: with strictly alternating
// compressible/incompressible adaptation buffers there are never two
// consecutive bypasses in stream order, so the run pin must not engage —
// even at Parallelism 4, where workers finish out of order. The probe
// verdicts travel through the in-order reassembly stage, so the
// controller sees the stream's sequence, not the workers' finish order.
func TestAlternatingContentNeverPins(t *testing.T) {
	for _, par := range []int{1, 4} {
		name := map[int]string{1: "sequential", 4: "parallel4"}[par]
		t.Run(name, func(t *testing.T) {
			opts := bypassOptions(par)
			e1, e2 := pipePair(t, opts)
			const buffers = 12
			data := make([]byte, 0, buffers*opts.BufferSize)
			for i := 0; i < buffers; i++ {
				if i%2 == 0 {
					data = append(data, datagen.ASCII(opts.BufferSize, int64(i))...)
				} else {
					data = append(data, datagen.Incompressible(opts.BufferSize, int64(i))...)
				}
			}
			got := sendRecv(t, e1, e2, data)
			if !bytes.Equal(got, data) {
				t.Fatal("roundtrip mismatch")
			}
			st := e1.Stats()
			if st.Controller.EntropyBypasses != buffers/2 {
				t.Errorf("EntropyBypasses = %d, want %d (one per random buffer)",
					st.Controller.EntropyBypasses, buffers/2)
			}
			// The last buffer is random, so a run of exactly 1 remains;
			// anything ≥ BypassRunPin means out-of-order feedback pinned.
			if run := st.Adapt.BypassRun; run >= adapt.DefaultBypassRunPin {
				t.Errorf("BypassRun = %d after alternating content, want < %d",
					run, adapt.DefaultBypassRunPin)
			}
		})
	}
}

// TestDisableEntropyBypassRestoresOldPath: the ablation switch really
// turns the probe off — random data goes through the codec (and the
// incompressible-data guard) the way PR-4 behaved.
func TestDisableEntropyBypassRestoresOldPath(t *testing.T) {
	opts := bypassOptions(1)
	opts.DisableEntropyBypass = true
	e1, e2 := pipePair(t, opts)
	data := datagen.Incompressible(1<<20, 3)
	got := sendRecv(t, e1, e2, data)
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	if st := e1.Stats(); st.Controller.EntropyBypasses != 0 {
		t.Fatalf("EntropyBypasses = %d with the bypass disabled", st.Controller.EntropyBypasses)
	}
}

// TestBypassedGroupsDecodeAsLevelZero pins the wire form: a bypassed
// buffer is a level-0 group, indistinguishable from one the controller
// chose — no new frame kinds, so any decoder (including pre-bypass
// builds) reads it.
func TestBypassedGroupsDecodeAsLevelZero(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(struct {
		*bytes.Buffer
	}{&buf}, bypassOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	data := datagen.Incompressible(512*1024, 21)
	if _, err := e.WriteMessage(data); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.ReadMsgHeader(); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Mark == wire.MarkMsgEnd {
			break
		}
		if f.Mark == wire.MarkGroupBegin && f.Level != codec.MinLevel {
			t.Fatalf("bypassed buffer framed at level %d, want 0", f.Level)
		}
	}
}

// TestOneBufferReleasesBypassPin: a one-buffer message skips the entropy
// probe at level 0 only while no bypass run is open, so the run a forced
// level pinned is still released by compressible content sent at level 0
// — here at default bounds, where the pin holds the level at 0.
func TestOneBufferReleasesBypassPin(t *testing.T) {
	reg := obs.NewRegistry()
	sub := reg.Events().Subscribe(16, false)
	defer sub.Close()
	o := smallPipelineOptions()
	o.Metrics = reg
	var levels []codec.Level
	o.Trace.OnGroupSent = func(level codec.Level, _, _, _ int) { levels = append(levels, level) }
	var buf bytes.Buffer
	e, err := New(struct{ *bytes.Buffer }{&buf}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := range adapt.DefaultBypassRunPin {
		if _, err := e.WriteMessageLevels(datagen.Incompressible(o.BufferSize, int64(i)), 1, codec.MaxLevel); err != nil {
			t.Fatal(err)
		}
	}
	if run := e.ctrl.Snapshot().BypassRun; run < adapt.DefaultBypassRunPin {
		t.Fatalf("BypassRun = %d after %d bypassed one-buffer messages, want the run pinned", run, adapt.DefaultBypassRunPin)
	}
	levels = nil
	if _, err := e.WriteMessage(datagen.ASCII(o.BufferSize, 1)); err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || levels[0] != codec.MinLevel {
		t.Fatalf("compressible message sent as groups at levels %v, want one at level 0", levels)
	}
	if run := e.ctrl.Snapshot().BypassRun; run != 0 {
		t.Fatalf("BypassRun = %d after compressible content at level 0, want 0 (pin released)", run)
	}
	var actions []string
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for {
		ev, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("bypass events %v, want a pin then a release", actions)
		}
		if ev.Type != obs.EventBypass {
			continue
		}
		actions = append(actions, ev.Action)
		if ev.Action == "release" {
			break
		}
	}
	if len(actions) != 2 || actions[0] != "pin" {
		t.Fatalf("bypass events %v, want a pin then a release", actions)
	}
}
