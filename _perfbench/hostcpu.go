package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the host takes CPU time from the guest's vCPUs
// while they have work to run ("steal"). On a shared host that share
// swings from nothing to almost half within minutes, and every figure
// of a run slows with it, whatever the program does. The time figures
// and closed-loop rates are therefore reported net of it: a duration d
// during which the host took a share s of the vCPUs' busy time is
// reported as d·(1−s), the time the same work takes when the vCPUs are
// not shared. The share is read from the kernel's per-machine CPU
// accounting (/proc/stat); where that is not readable, or reports no
// steal, the share is 0 and the figures are plain wall time.

// cpuTimes is the machine's cumulative CPU time in clock ticks, summed
// over CPUs: time spent running anything, and time stolen by the host.
type cpuTimes struct {
	busy, steal float64
}

// readCPU reads the aggregate "cpu" line of /proc/stat. It returns the
// zero value when the file cannot be read or parsed.
func readCPU() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		x, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return cpuTimes{}
		}
		v[i] = x
	}
	// user, nice, system, irq, softirq; idle (4) and iowait (5) are not busy.
	return cpuTimes{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stolenShare is the share of the vCPUs' busy time the host took
// between readings a and b.
func stolenShare(a, b cpuTimes) float64 {
	st, busy := b.steal-a.steal, b.busy-a.busy
	if st <= 0 || busy <= 0 {
		return 0
	}
	return st / (busy + st)
}

// netOfSteal is d less the share of it the host took between a and b.
func netOfSteal(d time.Duration, a, b cpuTimes) float64 {
	return d.Seconds() * (1 - stolenShare(a, b))
}

// stealClock samples readCPU at a fixed period while a serving phase
// runs, so that the steal share of any window of the phase can be
// looked up afterwards.
type stealClock struct {
	mu   sync.Mutex
	at   []time.Time
	cpu  []cpuTimes
	stop chan struct{}
	done chan struct{}
}

// stealPeriod is how often a stealClock samples; /proc/stat counts in
// 10 ms ticks.
const stealPeriod = 100 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	now, cpu := time.Now(), readCPU()
	c.mu.Lock()
	c.at = append(c.at, now)
	c.cpu = append(c.cpu, cpu)
	c.mu.Unlock()
}

// end stops the clock and waits for its goroutine to exit.
func (c *stealClock) end() {
	close(c.stop)
	<-c.done
}

// share is the steal share between the samples nearest to from and to.
func (c *stealClock) share(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stolenShare(c.cpu[c.nearest(from)], c.cpu[c.nearest(to)])
}

// nearest is the index of the sample taken closest to t.
func (c *stealClock) nearest(t time.Time) int {
	best := 0
	for i, at := range c.at {
		if absDur(at.Sub(t)) < absDur(c.at[best].Sub(t)) {
			best = i
		}
	}
	return best
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
