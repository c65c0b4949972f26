package adocrpc

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestCallBudget pins the per-call cost of the adocrpc → adocmux →
// engine path: a 16 KB echo over loopback TCP under a context with a
// deadline, as callers of a remote service make it. Client and server
// share the process, so both ends count. It measures allocations per
// call (testing.AllocsPerRun) and bytes allocated per payload byte (the
// runtime.MemStats.TotalAlloc delta over the argument bytes sent).
//
// On a 2-vCPU x86-64 Linux host, at any GOMAXPROCS of 1, 2 and 8, the
// tree before pooled buffers measured 50 allocs per call and 6.63 bytes
// per payload byte; pooled mux receive segments and RPC send buffers,
// an allocation-free bufpool.Put, stack-built mux control frames and one
// context.AfterFunc per call took that to 35 and 2.13. One reused frame
// sink per engine (no sink or group list allocated per one-buffer
// message) and mux deadlines that arm a timer only when an operation
// waits (the server sets and clears its request deadline around a read
// that mostly finds the request already buffered) took allocations to
// 29. The bytes
// ceiling leaves about 50 % headroom and fails the tree before pooled
// buffers; the allocations ceiling leaves 4 and fails the tree at 35.
func TestCallBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxAllocsPerCall   = 33
		maxBytesPerPayload = 3.2
		calls              = 400
	)
	r := newRig(t, ServerConfig{}, PoolConfig{MaxSessions: 1})
	args := [][]byte{compressible(16<<10, 1)}
	call := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := r.pool.Call(ctx, "echo", args); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 {
		call() // dial the session, warm the pools
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(calls, call) // calls+1 calls
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64((calls+1)*len(args[0]))
	t.Logf("%.1f allocs per call, %.2f bytes allocated per payload byte", allocs, perByte)
	if allocs > maxAllocsPerCall {
		t.Errorf("%.1f allocs per call, budget %d", allocs, maxAllocsPerCall)
	}
	if perByte > maxBytesPerPayload {
		t.Errorf("%.2f bytes allocated per payload byte, budget %.1f", perByte, maxBytesPerPayload)
	}
}
