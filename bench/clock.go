package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// repTime is the host cost of one timed rep.
type repTime struct {
	wall, cpu float64
}

// timeRep runs fn and measures its wall and CPU seconds.
func timeRep(fn func() error) (repTime, error) {
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	return repTime{wall: wall, cpu: cpuSeconds() - c0}, err
}

// repeat calls rep until the measuring budget is spent: at least min
// times, and then again only while one more rep of the median length so
// far still fits in the budget, so a run measures for about the budget
// without overshooting it by a whole rep. The previous rep's garbage is
// collected before each rep, so no rep pays for another's heap and the
// process's peak RSS is one rep's peak.
func repeat(budget time.Duration, min int, rep func(i int) error) error {
	start := time.Now()
	var lens []float64
	for i := 0; ; i++ {
		if i >= min {
			next := time.Duration(median(lens) * float64(time.Second))
			if time.Since(start)+next > budget {
				return nil
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		lens = append(lens, time.Since(t0).Seconds())
	}
}

// chunkClock turns progress callbacks into host ns/record per chunk of
// at least every records. Only whole chunks count: the partial tail of a
// run is dropped, so every sample covers the same amount of work.
type chunkClock struct {
	every   uint64
	markT   time.Time
	markRec uint64
	ns      []float64
}

// start marks the beginning of a run at record 0.
func (c *chunkClock) start() { c.mark(time.Now(), 0) }

func (c *chunkClock) mark(t time.Time, rec uint64) { c.markT, c.markRec = t, rec }

// progress observes the running record count.
func (c *chunkClock) progress(rec uint64) {
	now := time.Now()
	if d := rec - c.markRec; rec > c.markRec && d >= c.every {
		c.ns = append(c.ns, float64(now.Sub(c.markT).Nanoseconds())/float64(d))
		c.mark(now, rec)
	}
}
