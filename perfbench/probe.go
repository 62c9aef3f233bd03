package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe times a fixed computation of the benchmark's own, one copy per
// processor: a walk along a random cycle through 16 MB of memory with a
// few multiply-xor steps per hop. The program under test never runs it, so
// a change to the program cannot move it; only the host can. On a shared
// host its time swings with the neighbours' load (about ±20% over minutes
// on a 2-core machine), and the workloads' times swing with it.
//
// End-to-end times are reported at the reference host speed: a run's
// times are scaled by probeRefMs over the median of the probes it takes
// before each set-up and each round, which cancels the host drift between
// runs that would otherwise swamp every bound. A probe that overlaps the
// workload's own garbage collection reads slow; the median keeps such a
// minority of probes from moving the factor.
type hostProbe struct {
	next []uint32
	sink uint64
}

// probeRefMs is the probe's time on an idle 2-core reference host; a
// normalized time equals the wall time a host of that speed would see.
const probeRefMs = 16

// newHostProbe maps the probe's memory outside the Go heap, so it does not
// raise the workload's garbage-collection goal.
func newHostProbe() (*hostProbe, error) {
	const n = 1 << 22
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	// Sattolo's shuffle of the identity turns it into one random cycle:
	// next[i] is the element after i.
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{next: next}, nil
}

// close unmaps the probe's memory.
func (p *hostProbe) close() error {
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&p.next[0])), 4*len(p.next)))
}

// residentMB is the probe's memory, resident for the whole run and
// subtracted from the run's peak so peak_rss_mb is the workload's own.
func (p *hostProbe) residentMB() float64 { return float64(4*len(p.next)) / (1 << 20) }

// ms runs the probe once on every processor and returns its wall time.
func (p *hostProbe) ms() float64 {
	procs := runtime.GOMAXPROCS(0)
	sums := make([]uint64, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at, h := uint32(g*104729), uint64(1)
			for i := 0; i < 1<<17; i++ {
				at = p.next[at]
				for k := 0; k < 8; k++ {
					h = h*6364136223846793005 + uint64(at)
					h ^= h >> 29
				}
			}
			sums[g] = h
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, h := range sums {
		p.sink += h
	}
	return float64(d.Nanoseconds()) / 1e6
}

// scale returns the factor that takes a time measured when the probe took
// probeMs to the reference host speed.
func scale(probeMs float64) float64 { return probeRefMs / probeMs }
