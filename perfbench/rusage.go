//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusageThread is RUSAGE_THREAD: the calling OS thread only.
const rusageThread = 1

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF/THREAD
	}
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time of every thread of the process so far,
// garbage collector included.
func processCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_SELF)) }

// threadCPU is the CPU time of the calling OS thread; callers pin their
// goroutine with runtime.LockOSThread first.
func threadCPU() time.Duration { return cpuOf(rusage(rusageThread)) }

// resetPeakRSS returns the memory the Go heap has freed to the OS and
// resets the kernel's resident high-water mark (VmHWM) to the current
// resident set, so that the next readPeakRSSMB gives the peak since now.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// readPeakRSSMB is the process's resident high-water mark (VmHWM) in MiB.
func readPeakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
