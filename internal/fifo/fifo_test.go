package fifo

import (
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPushPopOrder(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		if err := q.Push(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		v, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestLenCap(t *testing.T) {
	q := New[string](4)
	if q.Len() != 0 {
		t.Fatalf("fresh queue: len=%d", q.Len())
	}
	q.Push("a", 1)
	q.Push("b", 1)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("Len after pop = %d, want 1", q.Len())
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := q.Push(round*3+i, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			v, err := q.Pop()
			if err != nil || v != round*3+i {
				t.Fatalf("round %d: got %d,%v want %d", round, v, err, round*3+i)
			}
		}
	}
}

func TestPushBlocksWhenFull(t *testing.T) {
	q := New[int](1)
	q.Push(1, 1)
	done := make(chan error, 1)
	go func() { done <- q.Push(2, 1) }()
	select {
	case <-done:
		t.Fatal("Push into full queue returned without a Pop")
	case <-time.After(20 * time.Millisecond):
	}
	if v, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("unblocked Push: %v", err)
	}
	if v, err := q.Pop(); err != nil || v != 2 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
}

func TestPopBlocksWhenEmpty(t *testing.T) {
	q := New[int](4)
	got := make(chan int, 1)
	go func() {
		v, err := q.Pop()
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Pop on empty queue returned early")
	case <-time.After(20 * time.Millisecond):
	}
	q.Push(7, 1)
	if v := <-got; v != 7 {
		t.Fatalf("Pop = %d, want 7", v)
	}
}

func TestCloseSendDrains(t *testing.T) {
	q := New[int](4)
	q.Push(1, 1)
	q.Push(2, 1)
	q.CloseSend()
	if err := q.Push(3, 1); err != ErrClosed {
		t.Fatalf("Push after CloseSend: %v, want ErrClosed", err)
	}
	if v, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("drain 1: %d, %v", v, err)
	}
	if v, err := q.Pop(); err != nil || v != 2 {
		t.Fatalf("drain 2: %d, %v", v, err)
	}
	if _, err := q.Pop(); err != io.EOF {
		t.Fatalf("Pop after drain: %v, want io.EOF", err)
	}
}

func TestCloseSendUnblocksWaiters(t *testing.T) {
	q := New[int](1)
	q.Push(1, 1)
	pushErr := make(chan error, 1)
	go func() { pushErr <- q.Push(2, 1) }()
	time.Sleep(10 * time.Millisecond)
	q.CloseSend()
	if err := <-pushErr; err != ErrClosed {
		t.Fatalf("blocked Push after CloseSend: %v, want ErrClosed", err)
	}
}

func TestAbort(t *testing.T) {
	cause := errors.New("link down")
	q := New[int](4)
	q.Push(1, 1)
	q.Abort(cause)
	if _, err := q.Pop(); !errors.Is(err, cause) {
		t.Fatalf("Pop after Abort: %v, want cause", err)
	}
	if err := q.Push(2, 1); !errors.Is(err, cause) {
		t.Fatalf("Push after Abort: %v, want cause", err)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after Abort = %d, want 0", q.Len())
	}
}

func TestAbortNilCause(t *testing.T) {
	q := New[int](2)
	q.Abort(nil)
	if _, err := q.Pop(); err != ErrClosed {
		t.Fatalf("Pop after Abort(nil): %v, want ErrClosed", err)
	}
}

func TestAbortAfterCloseSend(t *testing.T) {
	cause := errors.New("boom")
	q := New[int](4)
	q.Push(1, 1)
	q.CloseSend()
	q.Abort(cause)
	if _, err := q.Pop(); !errors.Is(err, cause) {
		t.Fatalf("Pop: %v, want cause (abort overrides drain)", err)
	}
}

func TestHighWaterAndCounts(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		q.Push(i, 1)
	}
	q.Pop()
	q.Push(9, 1)
	q.Push(10, 1)
	if hw := q.HighWater(); hw != 6 {
		t.Fatalf("HighWater = %d, want 6", hw)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2500
	)
	q := New[int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if err := q.Push(p*perProd+i, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.CloseSend()
	}()

	var mu sync.Mutex
	seen := make(map[int]bool, producers*perProd)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, err := q.Pop()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate item %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	cwg.Wait()
	if len(seen) != producers*perProd {
		t.Fatalf("consumed %d items, want %d", len(seen), producers*perProd)
	}
}

func TestSingleProducerOrderPreserved(t *testing.T) {
	q := New[int](7)
	const n = 10000
	go func() {
		for i := 0; i < n; i++ {
			q.Push(i, 1)
		}
		q.CloseSend()
	}()
	for i := 0; i < n; i++ {
		v, err := q.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("out of order: got %d at position %d", v, i)
		}
	}
	if _, err := q.Pop(); err != io.EOF {
		t.Fatalf("tail: %v, want io.EOF", err)
	}
}

func TestQuickFIFOProperty(t *testing.T) {
	// Property: for any sequence of values, pushing then popping through a
	// large-enough queue returns the same sequence.
	f := func(vals []int16) bool {
		q := New[int16](len(vals) + 1)
		for _, v := range vals {
			if q.Push(v, 1) != nil {
				return false
			}
		}
		q.CloseSend()
		for _, want := range vals {
			v, err := q.Pop()
			if err != nil || v != want {
				return false
			}
		}
		_, err := q.Pop()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New[[]byte](64)
	seg := make([]byte, 8192)
	go func() {
		for {
			if _, err := q.Pop(); err != nil {
				return
			}
		}
	}()
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		if err := q.Push(seg, 1); err != nil {
			b.Fatal(err)
		}
	}
	q.CloseSend()
}

// TestHeavyItemEntersEmptyQueue: an item heavier than the whole capacity
// (a buffer of more packets than the FIFO bounds) enters an empty queue
// instead of blocking forever, and the next item waits until it leaves.
func TestHeavyItemEntersEmptyQueue(t *testing.T) {
	q := New[int](4)
	pushed := make(chan error, 1)
	go func() { pushed <- q.Push(1, 10) }()
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push of an item heavier than the capacity blocked on an empty queue")
	}
	if n := q.Len(); n != 10 {
		t.Fatalf("Len = %d, want 10", n)
	}
	go func() { pushed <- q.Push(2, 1) }()
	select {
	case <-pushed:
		t.Fatal("Push behind an over-capacity item returned without a Pop")
	case <-time.After(20 * time.Millisecond):
	}
	if v, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if v, err := q.Pop(); err != nil || v != 2 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
}

// TestLenAndHighWaterCountWeight: occupancy and its high-water mark are
// the total weight of the queued items, not their number.
func TestLenAndHighWaterCountWeight(t *testing.T) {
	q := New[string](100)
	q.Push("a", 26)
	q.Push("b", 3)
	if n := q.Len(); n != 29 {
		t.Fatalf("Len = %d, want 29", n)
	}
	q.Pop()
	if n := q.Len(); n != 3 {
		t.Fatalf("Len after popping the 26-weight item = %d, want 3", n)
	}
	q.Push("c", 10)
	if n, hw := q.Len(), q.HighWater(); n != 13 || hw != 29 {
		t.Fatalf("Len = %d, HighWater = %d, want 13 and 29", n, hw)
	}
}

// TestWeightedPushBlocksUntilRoom: a push waits until enough weight has
// been popped for it to fit, not merely until one item has left.
func TestWeightedPushBlocksUntilRoom(t *testing.T) {
	q := New[int](10)
	for i := 0; i < 3; i++ {
		q.Push(i, 3) // weight 9 of 10
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.Push(9, 5) }()
	waitBlocked := func(stage string) {
		t.Helper()
		select {
		case <-pushed:
			t.Fatalf("%s: a 5-weight Push returned with %d of 10 in use", stage, q.Len())
		case <-time.After(20 * time.Millisecond):
		}
	}
	waitBlocked("full")
	q.Pop() // 6 in use: 5 more do not fit
	waitBlocked("one pop")
	q.Pop() // 3 in use
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if n := q.Len(); n != 8 {
		t.Fatalf("Len = %d, want 8", n)
	}
}

// TestAbortDropsWeightedItems: Abort empties the queue of its weight as
// well as its items, and releases a producer waiting for room.
func TestAbortDropsWeightedItems(t *testing.T) {
	cause := errors.New("link down")
	q := New[int](8)
	q.Push(1, 5)
	q.Push(2, 3)
	pushed := make(chan error, 1)
	go func() { pushed <- q.Push(3, 4) }()
	time.Sleep(10 * time.Millisecond)
	q.Abort(cause)
	if err := <-pushed; !errors.Is(err, cause) {
		t.Fatalf("blocked Push after Abort: %v, want cause", err)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len after Abort = %d, want 0", n)
	}
	if _, err := q.Pop(); !errors.Is(err, cause) {
		t.Fatalf("Pop after Abort: %v, want cause", err)
	}
}
