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
		if err := q.Push(i); err != nil {
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
	q.Push("a")
	q.Push("b")
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
			if err := q.Push(round*3 + i); err != nil {
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
	q.Push(1)
	done := make(chan error, 1)
	go func() { done <- q.Push(2) }()
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
	q.Push(7)
	if v := <-got; v != 7 {
		t.Fatalf("Pop = %d, want 7", v)
	}
}

func TestCloseSendDrains(t *testing.T) {
	q := New[int](4)
	q.Push(1)
	q.Push(2)
	q.CloseSend()
	if err := q.Push(3); err != ErrClosed {
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
	q.Push(1)
	pushErr := make(chan error, 1)
	go func() { pushErr <- q.Push(2) }()
	time.Sleep(10 * time.Millisecond)
	q.CloseSend()
	if err := <-pushErr; err != ErrClosed {
		t.Fatalf("blocked Push after CloseSend: %v, want ErrClosed", err)
	}
}

func TestAbort(t *testing.T) {
	cause := errors.New("link down")
	q := New[int](4)
	q.Push(1)
	q.Abort(cause)
	if _, err := q.Pop(); !errors.Is(err, cause) {
		t.Fatalf("Pop after Abort: %v, want cause", err)
	}
	if err := q.Push(2); !errors.Is(err, cause) {
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
	q.Push(1)
	q.CloseSend()
	q.Abort(cause)
	if _, err := q.Pop(); !errors.Is(err, cause) {
		t.Fatalf("Pop: %v, want cause (abort overrides drain)", err)
	}
}

func TestHighWaterAndCounts(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Push(9)
	q.Push(10)
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
				if err := q.Push(p*perProd + i); err != nil {
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
			q.Push(i)
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
			if q.Push(v) != nil {
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
		if err := q.Push(seg); err != nil {
			b.Fatal(err)
		}
	}
	q.CloseSend()
}
