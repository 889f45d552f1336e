package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by ±20%
// over minutes, the same way for every workload, which moves every
// timing more than most optimisations would. So each run also measures
// the host's speed with a fixed computation that depends on nothing in
// the program under test, interleaved with the workload, and the
// end-to-end timings are reported as if the host ran at refRate. The
// computation allocates nothing, so the program's heap cannot slow it
// down through the collector.

// refRate is the probe's speed, in units per second of one thread's CPU
// time, on the 2-CPU host the benchmark was written on; a run at that
// speed reports its timings unscaled.
const refRate = 2000.0

// probeEvery spaces the probe's bursts in a closed loop (see closedLoop).
const probeEvery = 250 * time.Millisecond

// probeLanes is the number of goroutines a burst runs, one per CPU the
// workloads use.
const probeLanes = 2

// lane is one goroutine's working set: a pointer chase over a shuffled
// ring that does not fit in the L1 and L2 caches, and a sort.
type lane struct {
	ring  []uint32
	keys  []uint64
	work  []uint64
	pos   uint32
	state uint64
}

func newLane(seed uint64) *lane {
	l := &lane{ring: make([]uint32, 1<<17), keys: make([]uint64, 4096), work: make([]uint64, 4096), state: seed}
	perm := make([]uint32, len(l.ring))
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- { // a fixed shuffle (xorshift), not the run's seed
		j := int(l.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm { // one cycle through every slot
		l.ring[perm[i]] = perm[(i+1)%len(perm)]
	}
	for i := range l.keys {
		l.keys[i] = l.next()
	}
	return l
}

func (l *lane) next() uint64 {
	l.state ^= l.state << 13
	l.state ^= l.state >> 7
	l.state ^= l.state << 17
	return l.state
}

// unit is the probe's unit of work.
func (l *lane) unit() {
	for i := 0; i < 1<<14; i++ {
		l.pos = l.ring[l.pos]
	}
	copy(l.work, l.keys)
	slices.Sort(l.work)
	l.keys[l.pos%uint32(len(l.keys))] ^= l.work[0] // keeps the sort from being optimised away
}

// probe accumulates the host's measured speed over a run. It counts the
// CPU time of the threads that ran it, not wall time, so the collector
// working for the program in between does not register as a slow host.
type probe struct {
	lanes [probeLanes]*lane
	units int
	cpu   time.Duration // summed over lanes
	busy  time.Duration // wall time spent in bursts
}

func newProbe() *probe {
	p := &probe{}
	for i := range p.lanes {
		p.lanes[i] = newLane(0x9e3779b97f4a7c15 + uint64(i))
	}
	return p
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for a valid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// burst runs the probe on every lane, each on its own OS thread, for
// about d.
func (p *probe) burst(d time.Duration) {
	start := time.Now()
	counts := make([]int, probeLanes)
	cpu := make([]time.Duration, probeLanes)
	var wg sync.WaitGroup
	for i, l := range p.lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			for time.Since(start) < d {
				l.unit()
				counts[i]++
			}
			cpu[i] = threadCPU() - c0
		}(i, l)
	}
	wg.Wait()
	p.busy += time.Since(start)
	for i := range counts {
		p.units += counts[i]
		p.cpu += cpu[i]
	}
}

// speed is the host's speed relative to the one refRate was measured on.
func (p *probe) speed() float64 { return float64(p.units) / p.cpu.Seconds() / refRate }
