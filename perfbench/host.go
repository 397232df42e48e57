package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibSink keeps the calibration loops' results observable so the
// compiler cannot drop them.
var calibSink uint64

// calibrate times a fixed loop five times and returns the median, in
// milliseconds: 2^23 rounds of xorshift, then a 2^19-step dependent
// random walk over a 16 MiB table. The table is larger than the caches,
// so the walk measures memory latency, which the solver's clause and
// watch-list traffic depends on as much as on the core's speed.
// Comparing the value at the start and the end of a run shows host-speed
// drift beside the metrics; no program change can move it.
func calibrate() float64 {
	table := make([]uint32, 4<<20)
	for i := range table {
		table[i] = uint32(i*2654435761) & (4<<20 - 1)
	}
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		j := uint32(1)
		for i := 0; i < 1<<19; i++ {
			j = (table[j] ^ uint32(i)) & (4<<20 - 1)
		}
		calibSink += x + uint64(j)
		reps = append(reps, msSince(start))
	}
	return median(reps)
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's peak resident set size in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goMem samples the Go runtime's cumulative allocation and GC counters.
type goMem struct {
	allocBytes uint64
	gcCycles   uint32
}

func readGoMem() goMem {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goMem{m.TotalAlloc, m.NumGC}
}

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (in clock ticks of 10 ms, the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is the state (field 3); utime and stime are fields 14, 15.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB returns the peak resident set size (VmHWM) of process
// pid in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles with
// method "inclusive"). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
