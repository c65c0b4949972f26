package bench

import "testing"

// Per-connection resource budgets, pinned here (100 conns, every test run)
// and in CI's resource-budget job (1000 conns from the bench artifact).
// Idle: one handler goroutine per connection plus measurement slack —
// nothing else may survive between messages. Active: two application
// goroutines (sender, handler) plus the three engine pipeline goroutines
// (emitter and reassembly on the send side, reception on the receive
// side) per stalled connection; before the shared worker pool this was
// ~15, with Parallelism=4 workers spawned per direction per message.
const (
	budgetIdlePerConn   = 2.0
	budgetActivePerConn = 8.0
)

// TestManyConnsGoroutineBudget is the goroutine-count regression test: 100
// concurrent connections through one Server must stay under the idle and
// active per-connection budgets, or connection cost has regressed.
func TestManyConnsGoroutineBudget(t *testing.T) {
	if raceEnabled {
		// Hundreds of concurrent pipelines under race instrumentation
		// take minutes, and the goroutine anatomy is identical.
		t.Skip("goroutine budgets are measured without the race detector")
	}
	res, err := runManyConns(100, 20, 1)
	if err != nil {
		t.Fatalf("runManyConns: %v", err)
	}
	t.Logf("conns=%d idle=%.3f/conn active=%.3f/conn allocs/op=%.1f",
		res.conns, res.idlePerConn, res.actPerConn, res.allocsPerOp)
	if res.idlePerConn >= budgetIdlePerConn {
		t.Errorf("idle goroutines/conn = %.3f, budget < %.1f", res.idlePerConn, budgetIdlePerConn)
	}
	if res.actPerConn > budgetActivePerConn {
		t.Errorf("active goroutines/conn = %.3f, budget <= %.1f", res.actPerConn, budgetActivePerConn)
	}
	if res.allocsPerOp <= 0 {
		t.Errorf("allocs/op = %.1f, expected a positive measurement", res.allocsPerOp)
	}
}
