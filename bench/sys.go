package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name: CPU time of the calling OS thread only. The generator goroutine
// is locked to its thread, so this is the generator's own CPU.
const rusageThread = 1

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0 // not Linux: CPU rows read 0 rather than failing the run
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is user+sys CPU of the whole process so far.
func processCPU() time.Duration { return cpuOf(syscall.RUSAGE_SELF) }

// threadCPU is user+sys CPU of the calling OS thread so far.
func threadCPU() time.Duration { return cpuOf(rusageThread) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcCPUSeconds is the CPU the garbage collector has used so far.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// heapAllocs is the number of heap objects allocated so far, read
// without stopping the world (runtime.ReadMemStats does stop it).
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
