package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user + system) the process has used so far,
// across all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuStat is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat returns the host's cumulative CPU time split, or a zero
// value where /proc/stat is unavailable.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	// user nice system idle iowait irq softirq steal: guest time is
	// already included in user.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two /proc/stat readings, in percent.
func stealPct(a, b cpuStat) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
