package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process's cumulative resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process (getrusage)
	mallocs uint64
	bytes   uint64
}

// readUsage samples the counters. ReadMemStats stops the world, so the
// wall-clock reading is taken last on the way in and first on the way out
// (see measure): the stop is never inside the timed region.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost is the resources one timed call consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// measure times fn. The heap is collected first so every repeat starts
// from the same GC state; the collection itself is outside the timing.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	before := readUsage()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	after := readUsage()
	return cost{
		wall:    wall,
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
	}, err
}

// peakRSSMB reads the process's resident-set high-water mark. VmHWM is
// per address space; ru_maxrss is not used because after a fork+exec it
// also covers the parent's memory (the go tool's, under `go run`).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sorted(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the benchmark driver computes. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return values[0], values[0]
	}
	s := sorted(values)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and which percentile that is. With fewer than twenty samples
// no percentile above the median qualifies, and the median is returned.
func tail(values []float64) (value, pct float64) {
	n := len(values)
	if n < 20 {
		return median(values), 50
	}
	s := sorted(values)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
