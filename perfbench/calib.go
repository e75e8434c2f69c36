package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. The reference host is a 2-vCPU VM whose speed
// drifts with other tenants' load: the same exact-sweep pass took 1.0 s in
// one run and 1.4 s a minute later, and set-up time moved with it. Raw
// timings of one code version therefore spread by 10-29% (IQR over median
// across 10 runs of 25 s), more than a bound can tolerate.
//
// Around every pass the benchmark times a fixed workload of its own,
// building and probing hash maps of 50,000 entries on both threads at once,
// and scales the pass's timings by calRef over the mean of the calibrations
// just before and just after it. Of the candidates tried (a register-only
// xorshift loop, random access over 256 KiB and 4 MiB tables, sorting, JSON
// round trips, map churn with and without allocation), allocating map churn
// tracked the passes best.
//
// The calibration runs in a child process (this binary with --calibrate),
// so neither the program's heap, which would set the pace of the
// calibration's garbage collection, nor any goroutine the program leaves
// running can reach it, and its maps never count towards the run's
// peak_rss_mb. The child's own start-up is not timed.

// calRef is about the calibration's time on the reference host in its
// quiet spells; it only sets the scale, so scaled timings read as seconds
// on that host when it is quiet.
const calRef = 60 * time.Millisecond

// calMap is one thread's calibration work.
func calMap() int {
	s := 0
	for i := 0; i < 10; i++ {
		m := map[int]int{}
		for j := 0; j < 50_000; j++ {
			m[j*7919%100_003] = j
		}
		for j := 0; j < 50_000; j++ {
			s += m[j]
		}
	}
	return s
}

// calibrateChild is the child's side: it runs calMap on `callers` threads
// at once, twice, and prints the second round's time in nanoseconds. The
// first round grows the fresh process's heap to its working size, so the
// timed round, like the passes, reuses memory the process already holds.
func calibrateChild() int {
	var d time.Duration
	sum := 0
	for round := 0; round < 2; round++ {
		t0 := time.Now()
		sums := make([]int, callers)
		var wg sync.WaitGroup
		for c := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[c] = calMap()
			}()
		}
		wg.Wait()
		d = time.Since(t0)
		for _, s := range sums {
			sum += s
		}
	}
	fmt.Println(d.Nanoseconds(), sum)
	return 0
}

// calibrate runs one calibration in a child process and returns its time.
func calibrate() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "--calibrate").Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return 0, fmt.Errorf("calibration: unexpected output %q", out)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("calibration: unexpected output %q", out)
	}
	return time.Duration(ns), nil
}
