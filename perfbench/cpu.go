package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the process's user+sys CPU time in seconds. The
// kernel subtracts hypervisor steal from task CPU time, so figures built
// on it measure the program rather than its neighbours.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with a valid pointer
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling thread's CPU time in nanoseconds. The
// driving goroutine is locked to its thread (see main), so this is the
// CPU the benchmark's own calls consumed, excluding GC work that other
// threads did concurrently.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // cannot fail for a valid clock id
	}
	return ts.Nano()
}

// stealSeconds returns the machine's cumulative hypervisor steal time
// from /proc/stat, or -1 where the kernel does not report it. It is a
// run diagnostic only: a phase with steal ran beside busy neighbours.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return float64(ticks) / 100 // USER_HZ is 100 on Linux
}

// phase measures one timed phase on every clock the benchmark reports:
// process CPU (the metric), wall time and machine steal (diagnostics),
// and heap bytes allocated.
type phase struct {
	cpu, steal float64
	wall       time.Time
	alloc      uint64
}

// startPhase reads the costly counters first and process CPU last, and
// stop reads it first, so the phase's CPU holds little of its own
// bookkeeping.
func startPhase() phase {
	p := phase{alloc: totalAlloc(), steal: stealSeconds(), wall: time.Now()}
	p.cpu = processCPU()
	return p
}

// phaseCost is what a phase consumed.
type phaseCost struct {
	cpu, wall, steal float64
	alloc            uint64
}

func (p phase) stop() phaseCost {
	c := phaseCost{cpu: processCPU() - p.cpu}
	c.wall = time.Since(p.wall).Seconds()
	c.alloc = totalAlloc() - p.alloc
	if s := stealSeconds(); s >= 0 && p.steal >= 0 {
		c.steal = s - p.steal
	}
	return c
}

func (c *phaseCost) add(o phaseCost) {
	c.cpu += o.cpu
	c.wall += o.wall
	c.steal += o.steal
	c.alloc += o.alloc
}

// totalAlloc returns the cumulative bytes the process has allocated on
// the heap. ReadMemStats stops the world, so it is read only at phase
// boundaries, never per call.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap forces a full collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeSample reads runtime/metrics counters cheaply enough to bracket
// single calls. The CPU classes are the runtime's own estimates (GOMAXPROCS
// times wall time, split by what each P did), so they are compared only
// with each other.
type runtimeSample struct {
	s []metrics.Sample
}

const (
	rmGC = iota
	rmTotal
	rmIdle
	rmAllocs
)

func newRuntimeSample() *runtimeSample {
	return &runtimeSample{s: []metrics.Sample{
		rmGC:     {Name: "/cpu/classes/gc/total:cpu-seconds"},
		rmTotal:  {Name: "/cpu/classes/total:cpu-seconds"},
		rmIdle:   {Name: "/cpu/classes/idle:cpu-seconds"},
		rmAllocs: {Name: "/gc/heap/allocs:bytes"},
	}}
}

func (r *runtimeSample) float(i int) float64 {
	if r.s[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return r.s[i].Value.Float64()
}

// cpu returns the runtime's GC CPU and non-idle CPU estimates, seconds.
func (r *runtimeSample) cpu() (gc, busy float64) {
	metrics.Read(r.s)
	return r.float(rmGC), r.float(rmTotal) - r.float(rmIdle)
}

// allocs returns the cumulative heap bytes allocated. The runtime counts
// small objects when their span is handed to a P, so a delta around one
// call is exact only on average.
func (r *runtimeSample) allocs() uint64 {
	metrics.Read(r.s[rmAllocs : rmAllocs+1])
	if r.s[rmAllocs].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return r.s[rmAllocs].Value.Uint64()
}
