package core

import (
	"bytes"
	"errors"
	"testing"

	"adoc/internal/codec"
)

// dictPipelineOptions pins the level ladder to DEFLATE so every group of
// a stream message goes through the flate path the dictionary hooks into.
func dictPipelineOptions(parallelism int) Options {
	o := smallPipelineOptions()
	o.MinLevel = 6
	o.MaxLevel = 6
	o.Parallelism = parallelism
	return o
}

// TestDictGroupsRoundTrip: with a dictionary announced on the sender and
// installed on the receiver, stream messages round trip at in-flight
// windows of 1 and 4, and clearing the dictionary returns
// the engine to plain groups (provable because the receiver holds no
// generations afterwards).
func TestDictGroupsRoundTrip(t *testing.T) {
	for _, par := range []int{1, 4} {
		opts := dictPipelineOptions(par)
		sender, receiver := pipePair(t, opts)
		dict := compressibleData(2048)
		sender.SetSendDict(1, dict)
		receiver.InstallRecvDict(1, dict)
		payload := compressibleData(64 * 1024)
		for msg := 0; msg < 3; msg++ {
			if got := sendRecv(t, sender, receiver, payload); !bytes.Equal(got, payload) {
				t.Fatalf("parallelism %d message %d: round trip lost data", par, msg)
			}
		}

		// Clearing the send dictionary must take effect for the next
		// message: a fresh receiver with no generations installed can only
		// decode it if the groups are plain again.
		sender.SetSendDict(0, nil)
		if got := sendRecv(t, sender, receiver, payload); !bytes.Equal(got, payload) {
			t.Fatalf("parallelism %d: post-clear round trip lost data", par)
		}
	}
}

// TestDictGenerationSwitch: retraining mid-connection — messages sent
// after SetSendDict(gen+1) decode against the new bytes while the store
// still holds the old generation, mirroring the announce-then-switch
// sequence the mux layer drives.
func TestDictGenerationSwitch(t *testing.T) {
	opts := dictPipelineOptions(1)
	sender, receiver := pipePair(t, opts)
	payload := compressibleData(32 * 1024)
	for gen := uint32(1); gen <= uint32(codec.DictGenerations)+2; gen++ {
		dict := append(compressibleData(1024), byte(gen))
		sender.SetSendDict(gen, dict)
		receiver.InstallRecvDict(gen, dict)
		if got := sendRecv(t, sender, receiver, payload); !bytes.Equal(got, payload) {
			t.Fatalf("generation %d: round trip lost data", gen)
		}
	}
}

// TestDictUnknownGenerationFails: a dict group naming a generation the
// receiver never installed must surface as corruption, not a hang or a
// silent mis-decode — and the failure proves dictionary groups were
// actually on the wire.
func TestDictUnknownGenerationFails(t *testing.T) {
	for _, par := range []int{1, 4} {
		opts := dictPipelineOptions(par)
		sender, receiver := pipePair(t, opts)
		sender.SetSendDict(7, compressibleData(1024))
		payload := compressibleData(32 * 1024)
		go sender.WriteMessage(payload) //nolint:errcheck — peer aborts mid-message
		buf := make([]byte, 64*1024)
		var err error
		for err == nil {
			_, err = receiver.Read(buf)
		}
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("parallelism %d: err = %v, want ErrCorrupt", par, err)
		}
	}
}
