package bench

import (
	"fmt"
	"time"

	"adoc"
)

// nullSink is an infinitely fast link: writes vanish, reads block. It
// isolates the sender pipeline so PipelineThroughput measures compression
// throughput, not the network.
type nullSink struct {
	block chan struct{}
}

func newNullSink() *nullSink { return &nullSink{block: make(chan struct{})} }

func (s *nullSink) Write(p []byte) (int, error) { return len(p), nil }

func (s *nullSink) Read(p []byte) (int, error) {
	<-s.block
	return 0, fmt.Errorf("bench: sink closed")
}

func (s *nullSink) Close() error {
	close(s.block)
	return nil
}

// PipelineThroughput measures the sender pipeline alone: data is sent reps
// times at a fixed compression level (min == max pins the adapter, so the
// measurement isolates the worker pool) over an infinitely fast sink, and
// the raw throughput in bytes per second is returned. parallelism is the
// engine's in-flight window on the shared worker pool; 1 is the paper's
// sequential pipeline as the window-of-1 case.
func PipelineThroughput(parallelism int, level adoc.Level, data []byte, reps int) (bps float64, err error) {
	if reps <= 0 {
		reps = 1
	}
	sink := newNullSink()
	defer sink.Close()
	opts := adoc.DefaultOptions()
	opts.Parallelism = parallelism
	opts.DisableProbe = true
	conn, err := adoc.NewConn(sink, opts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := conn.WriteMessageLevels(data, level, level); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(len(data)) * float64(reps) / elapsed.Seconds(), nil
}

// PipelineSpeedup returns the throughput ratio of the pipeline at the given
// window over a window of 1 on the same data at the same fixed level — the
// scaling number the parallel-pipeline work is judged by.
func PipelineSpeedup(parallelism int, level adoc.Level, data []byte, reps int) (float64, error) {
	seq, err := PipelineThroughput(1, level, data, reps)
	if err != nil {
		return 0, err
	}
	par, err := PipelineThroughput(parallelism, level, data, reps)
	if err != nil {
		return 0, err
	}
	if seq <= 0 {
		return 0, fmt.Errorf("bench: sequential throughput not positive")
	}
	return par / seq, nil
}
