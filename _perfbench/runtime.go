package main

import (
	"runtime"
	"runtime/metrics"
)

// runtimeSample is a reading of the Go runtime's allocation and GC
// counters: totals through runtime/metrics, and the recent pause history
// that only runtime.MemStats keeps exactly.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	numGC      uint32
	pauseNs    [256]uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	out := runtimeSample{allocBytes: allocBytes(), gcCycles: float64(s[0].Value.Uint64())}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.numGC, out.pauseNs = ms.NumGC, ms.PauseNs
	return out
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gcPausesMs returns the stop-the-world pauses of the collections between
// two readings, in ms; the runtime keeps only the most recent 256.
func gcPausesMs(before, after runtimeSample) []float64 {
	n := after.numGC - before.numGC
	n = min(n, uint32(len(after.pauseNs)))
	out := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		gc := after.numGC - i // the gc-th collection, 1-based
		out = append(out, float64(after.pauseNs[(gc+255)%256])/1e6)
	}
	return out
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
