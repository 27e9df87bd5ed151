package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// maxRate bounds the measured requests per second of window a latency
// log is sized for; a window that reaches it ends early.
const maxRate = 200000

// latencyLog records each measured request's latency and endpoint in
// anonymous memory mapped outside the Go heap, so the client's
// bookkeeping does not show in peak_heap_mb however many requests a
// window measures. Pages the window never reaches are never touched.
type latencyLog struct {
	mem []byte
	lat []float32 // seconds
	ep  []uint8   // index into endpoints
	n   int
}

func newLatencyLog(capacity int) (*latencyLog, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*5, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the latency log: %w", err)
	}
	return &latencyLog{
		mem: mem,
		lat: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), capacity),
		ep:  mem[capacity*4:],
	}, nil
}

func (l *latencyLog) full() bool { return l.n == len(l.lat) }
func (l *latencyLog) free() int  { return len(l.lat) - l.n }

func (l *latencyLog) add(d time.Duration, endpoint string) {
	l.lat[l.n] = float32(d.Seconds())
	for i, ep := range endpoints {
		if ep == endpoint {
			l.ep[l.n] = uint8(i)
		}
	}
	l.n++
}

// sorted returns every recorded latency in seconds, ascending.
func (l *latencyLog) sorted() []float64 {
	out := make([]float64, l.n)
	for i, v := range l.lat[:l.n] {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// byEndpoint returns each endpoint's latencies in seconds, ascending.
func (l *latencyLog) byEndpoint() map[string][]float64 {
	out := map[string][]float64{}
	for i, v := range l.lat[:l.n] {
		ep := endpoints[l.ep[i]]
		out[ep] = append(out[ep], float64(v))
	}
	for _, xs := range out {
		sort.Float64s(xs)
	}
	return out
}

// total is the sum of the recorded latencies, in seconds.
func (l *latencyLog) total() float64 {
	var sum float64
	for _, v := range l.lat[:l.n] {
		sum += float64(v)
	}
	return sum
}

// close unmaps the log; it must not be used afterwards.
func (l *latencyLog) close() error {
	if l == nil || l.mem == nil {
		return nil
	}
	err := syscall.Munmap(l.mem)
	l.mem, l.lat, l.ep, l.n = nil, nil, nil, 0
	return err
}
