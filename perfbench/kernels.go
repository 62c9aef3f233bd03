package main

import (
	"time"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// addKernels times the channel package's word kernels per call on masks
// shaped like a workload's slot resolution: listeners candidate masks of
// words words each (about eight candidate bits apiece), one id-bit source
// per listener, and channels transmitter masks. OrInto accumulates the
// transmitter masks; OverlapResolve resolves every listener against its
// channel's mask. Each figure is the median of several timed batches.
func (s samples) addKernels(listeners, channels, words int, seed uint64) {
	r := rng.New(seed)
	masks := make([][]uint64, listeners)
	srcs := make([][]uint64, listeners)
	chs := make([]int, listeners)
	for u := range masks {
		masks[u] = make([]uint64, words)
		for i := 0; i < 8; i++ {
			masks[u][r.IntN(words)] |= 1 << uint(r.IntN(64))
		}
		srcs[u] = make([]uint64, words)
		bit := r.IntN(64 * words)
		srcs[u][bit>>6] |= 1 << uint(bit&63)
		chs[u] = r.IntN(channels)
	}
	tx := make([]uint64, channels*words)
	row := func(u int) []uint64 { return tx[chs[u]*words : (chs[u]+1)*words] }

	const batches, minBatch = 7, 20 * time.Millisecond
	var orNs, resolveNs []float64
	sink := 0
	for b := 0; b < batches; b++ {
		calls, t0 := 0, time.Now()
		for time.Since(t0) < minBatch {
			for i := range tx {
				tx[i] = 0
			}
			for u, src := range srcs {
				channel.OrInto(row(u), src)
			}
			calls += listeners
		}
		orNs = append(orNs, float64(time.Since(t0).Nanoseconds())/float64(calls))
		calls, t0 = 0, time.Now()
		for time.Since(t0) < minBatch {
			for u, m := range masks {
				count, first := channel.OverlapResolve(m, row(u))
				sink += count + first
			}
			calls += listeners
		}
		resolveNs = append(resolveNs, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	kernelSink = sink
	s.add("channel.mask_words", float64(words))
	s.add("channel.or_into_ns", median(orNs))
	s.add("channel.overlap_resolve_ns", median(resolveNs))
}

// kernelSink keeps the resolve loop's results live.
var kernelSink int
