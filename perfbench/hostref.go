package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// refTask is the benchmark's yardstick for how fast the host runs
// memory-bound code at the moment. On the shared host this benchmark was
// built on, other guests' load changes for tens of minutes at a time,
// and while it is high every workload's CPU time per operation rises
// 2–2.7-fold, while a register-only loop does not slow at all; memory
// latency rises with them. No statistic over one run can take that out,
// because a whole run falls in one such period. So every run also times
// a fixed task of the benchmark's own code, which a change to the
// program cannot move, between its phases, and the gated
// norm_cpu_us_per_op is CPU time per operation scaled by refNominal over
// the task's typical time in that run.
//
// The task walks a 32 MiB pointer-chasing cycle (a cache miss per step,
// like graph traversal over a large heap) and sorts 256k integers (branchy
// work on data the caches hold).
type refTask struct {
	next  []uint32
	src   []int
	xs    []int
	times []time.Duration
}

// refNominal is the task's CPU time on the nominal host the normalized
// metric is expressed on; it is about what the task took on the 2-CPU
// host the benchmark was built on while other guests' load was high.
const refNominal = 80 * time.Millisecond

const (
	refCycle = 1 << 23 // cycle entries (32 MiB)
	refSteps = 300_000 // chase steps per burst
	refSort  = 1 << 18 // integers sorted per burst
)

func newRefTask(seed int64) *refTask {
	r := &refTask{next: make([]uint32, refCycle), src: make([]int, refSort), xs: make([]int, refSort)}
	// x → 5x+1 mod 2^23 is a single cycle through every index (Hull–Dobell),
	// and its stride defeats the hardware prefetchers.
	for i := range r.next {
		r.next[i] = uint32((5*i + 1) & (refCycle - 1))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range r.src {
		r.src[i] = rng.Int()
	}
	return r
}

// run times n bursts of the task by this thread's CPU clock.
func (r *refTask) run(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for range n {
		copy(r.xs, r.src)
		start := threadCPU()
		p := uint32(0)
		for range refSteps {
			p = r.next[p]
		}
		slices.Sort(r.xs)
		r.xs[0] += int(p) // keeps the walk from being optimised away
		r.times = append(r.times, threadCPU()-start)
	}
}

// typical is the lower quartile of the task's burst times so far: the
// task does the same work every burst, so what varies is how much other
// work disturbed it, and the lower quartile stays put while up to three
// quarters of the bursts are disturbed.
func (r *refTask) typical() time.Duration { return quantile(r.times, bestQ) }

// normalize scales a CPU time per operation to the nominal host.
func (r *refTask) normalize(d time.Duration) float64 {
	return us(d) * float64(refNominal) / float64(r.typical())
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}
