package main

import (
	"math"
	"testing"
	"time"
)

func TestStolenShare(t *testing.T) {
	a := cpuTimes{busy: 1000, steal: 50}
	for _, c := range []struct {
		b    cpuTimes
		want float64
	}{
		{cpuTimes{busy: 1300, steal: 150}, 0.25}, // 100 of 400 ticks stolen
		{cpuTimes{busy: 1300, steal: 50}, 0},     // no steal
		{cpuTimes{busy: 1000, steal: 80}, 0},     // no busy time: nothing to correct
		{cpuTimes{}, 0},                          // unreadable /proc/stat
	} {
		if got := stolenShare(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stolenShare(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
	if got := netOfSteal(2*time.Second, a, cpuTimes{busy: 1300, steal: 150}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("netOfSteal = %v, want 1.5", got)
	}
}

func TestStealClockShareUsesNearestSamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := &stealClock{}
	for i, cpu := range []cpuTimes{{0, 0}, {100, 0}, {150, 50}, {250, 50}} {
		c.at = append(c.at, t0.Add(time.Duration(i)*stealPeriod))
		c.cpu = append(c.cpu, cpu)
	}
	// The window [0.12 s, 0.19 s] snaps to samples 1 and 2: 50 busy, 50 stolen.
	if got := c.share(t0.Add(120*time.Millisecond), t0.Add(190*time.Millisecond)); got != 0.5 {
		t.Errorf("share = %v, want 0.5", got)
	}
	// The whole clock: 250 busy, 50 stolen.
	if got := c.share(t0, t0.Add(time.Second)); math.Abs(got-50.0/300) > 1e-12 {
		t.Errorf("share = %v, want %v", got, 50.0/300)
	}
}

func TestStealClockStartEnd(t *testing.T) {
	c := startStealClock()
	c.end()
	if len(c.at) < 2 {
		t.Fatalf("clock took %d samples, want the first and the last", len(c.at))
	}
	if s := c.share(c.at[0], c.at[len(c.at)-1]); s < 0 || s >= 1 {
		t.Errorf("share = %v, want [0, 1)", s)
	}
}
