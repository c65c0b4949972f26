package adocnet_test

import (
	"encoding/hex"
	"testing"

	"adoc"
	"adoc/adocmux"
	"adoc/adocnet"
	"adoc/internal/core"
	"adoc/internal/wire"
)

// defaultOfferHex is the handshake frame a default endpoint sends:
// protocol v1, 8 KB packets, 200 KB buffers, levels [0,10], mux and trace
// flags, and the raw+lzf+deflate codec mask.
const defaultOfferHex = "ad0c0103001001010000200000032000000a00030007"

// TestHandshakeOfferGolden pins the offer bytes of the stock
// configurations, so a change to option resolution cannot move what goes
// on the wire.
func TestHandshakeOfferGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts adocnet.Options
	}{
		{"Defaults", adocnet.Defaults()},
		{"adocmux.TransportOptions", adocmux.TransportOptions()},
		{"MaxLevel only", adocnet.Options{Options: adoc.Options{MaxLevel: adoc.MaxLevel}}},
	} {
		h, err := adocnet.Offer(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(wire.AppendHandshake(nil, h)); got != defaultOfferHex {
			t.Errorf("%s offer = %s, want %s", tc.name, got, defaultOfferHex)
		}
	}
}

// TestZeroSizedOptionsResolveToPaperConstants: every zero size resolves
// to the paper's value, the small-message cutoff included.
func TestZeroSizedOptionsResolveToPaperConstants(t *testing.T) {
	e, err := adoc.Options{MaxLevel: adoc.MaxLevel}.Effective()
	if err != nil {
		t.Fatal(err)
	}
	if e.PacketSize != 8*1024 || e.BufferSize != 200*1024 || e.SmallThreshold != 512*1024 {
		t.Fatalf("resolved packet/buffer/small = %d/%d/%d, want 8 KB/200 KB/512 KB",
			e.PacketSize, e.BufferSize, e.SmallThreshold)
	}
	if e.Parallelism != core.DefaultParallelism() {
		t.Fatalf("Parallelism = %d, want %d", e.Parallelism, core.DefaultParallelism())
	}
	if e.MinLevel != adoc.MinLevel || e.MaxLevel != adoc.MaxLevel {
		t.Fatalf("levels [%d,%d], want [0,10]", e.MinLevel, e.MaxLevel)
	}
}
