package sim

// FuzzSyncResolve drives the synchronous engine with decoded scenarios and
// pins it to the first-principles oracle, resolveSlotNaive: per-node
// deliveries always, the (slot, listener) delivery-event order whenever an
// observer is attached, and the erasure-draw order under loss (after the
// run, the engine's and the oracle's loss streams must stand at the same
// position). Scenarios cover every run mode the decoder can reach: no
// tiling, a 1×1 or 2×2 caller grid (falling back to the single tile under
// loss or with the observer), staggered starts, restricted spans, dropped
// directions, and channel IDs up to 69, so sets span two words.

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once it
// is exhausted, so every input decodes to some scenario.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() byte {
	if f.i >= len(f.b) {
		return 0
	}
	v := f.b[f.i]
	f.i++
	return v
}

// fuzzSyncScenario is one decoded FuzzSyncResolve input.
type fuzzSyncScenario struct {
	nw       *topology.Network
	local    [][]radio.Action // per node, indexed by local slot
	starts   []int            // nil: every node starts at slot 0
	global   [][]radio.Action // per global slot, per node: the oracle's view
	lossProb float64          // 0: reliable channels
	lossSeed uint64
	observe  bool
	grid     int // caller tiling: 0 none, else a grid×grid grid
}

// Flag bits of a scenario's first byte.
const (
	fuzzObserve  = 1 << 0
	fuzzGridLo   = 1 << 1 // two bits: 0 none, 1 → 1×1, 2 → 2×2, 3 none
	fuzzLoss     = 1 << 3
	fuzzStarts   = 1 << 4
	fuzzRestrict = 1 << 5
	fuzzDrop     = 1 << 6
)

// fuzzChannel maps a byte to a channel ID in 0–5 or 64–69: few enough
// channels that neighbors share some, in both words of a set.
func fuzzChannel(b byte) channel.ID {
	c := channel.ID(b % 6)
	if b >= 192 {
		c += 64
	}
	return c
}

// decodeSyncScenario turns fuzz bytes into a scenario: flags, then node
// count (2–24), radius and geometry seed, per-node channel sets (1–3 IDs,
// see fuzzChannel), optional span restrictions and dropped directions, the slot
// count (1–12), per-node local scripts, optional start slots (0–3) and an
// optional loss model.
func decodeSyncScenario(t *testing.T, data []byte) fuzzSyncScenario {
	t.Helper()
	in := &fuzzBytes{b: data}
	flags := in.next()
	sc := fuzzSyncScenario{observe: flags&fuzzObserve != 0}
	switch (flags / fuzzGridLo) & 3 {
	case 1:
		sc.grid = 1
	case 2:
		sc.grid = 2
	}
	n := 2 + int(in.next())%23
	radius := 0.2 + float64(in.next()%64)/64
	nw, err := topology.Geometric(n, radius, rng.New(uint64(in.next())))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		k := 1 + int(in.next())%3
		ids := make([]channel.ID, k)
		for j := range ids {
			ids[j] = fuzzChannel(in.next())
		}
		nw.SetAvail(topology.NodeID(u), channel.NewSet(ids...))
	}
	if flags&fuzzRestrict != 0 {
		for u := 0; u < n; u++ {
			for _, v := range nw.Neighbors(topology.NodeID(u)) {
				if v < topology.NodeID(u) || in.next()%4 != 0 {
					continue
				}
				mask := channel.NewSet(fuzzChannel(in.next()), fuzzChannel(in.next()))
				if err := nw.RestrictSpan(topology.NodeID(u), v, mask); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if flags&fuzzDrop != 0 {
		for u := 0; u < n; u++ {
			for _, v := range nw.Neighbors(topology.NodeID(u)) {
				if in.next()%5 != 0 {
					continue
				}
				if err := nw.DropDirection(v, topology.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sc.nw = nw

	slots := 1 + int(in.next())%12
	sc.local = make([][]radio.Action, n)
	for u := range sc.local {
		ids := nw.Avail(topology.NodeID(u)).IDs()
		sc.local[u] = make([]radio.Action, slots)
		for k := range sc.local[u] {
			x := int(in.next())
			c := ids[(x/3)%len(ids)]
			switch x % 3 {
			case 0:
				sc.local[u][k] = radio.Action{Mode: radio.Quiet}
			case 1:
				sc.local[u][k] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				sc.local[u][k] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
	}
	maxStart := 0
	if flags&fuzzStarts != 0 {
		sc.starts = make([]int, n)
		for u := range sc.starts {
			sc.starts[u] = int(in.next()) % 4
			if sc.starts[u] > maxStart {
				maxStart = sc.starts[u]
			}
		}
	}
	if flags&fuzzLoss != 0 {
		sc.lossProb = float64(1+in.next()%9) / 10
		sc.lossSeed = uint64(in.next())<<8 | uint64(in.next())
	}

	// The oracle's global script: quiet before the node's start, then its
	// local script, then its last action repeated (scriptSync clamps).
	sc.global = make([][]radio.Action, slots+maxStart)
	for s := range sc.global {
		sc.global[s] = make([]radio.Action, n)
		for u := 0; u < n; u++ {
			local := s
			if sc.starts != nil {
				local -= sc.starts[u]
			}
			switch {
			case local < 0:
				sc.global[s][u] = radio.Action{Mode: radio.Quiet}
			case local < slots:
				sc.global[s][u] = sc.local[u][local]
			default:
				sc.global[s][u] = sc.local[u][slots-1]
			}
		}
	}
	return sc
}

// lossModel returns a fresh loss model for the scenario, nil when reliable.
func (sc fuzzSyncScenario) lossModel(t *testing.T) *LossModel {
	t.Helper()
	if sc.lossProb == 0 {
		return nil
	}
	m, err := NewLossModel(sc.lossProb, rng.New(sc.lossSeed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func FuzzSyncResolve(f *testing.F) {
	f.Add([]byte{0, 6, 40, 1})
	f.Add([]byte{fuzzObserve, 9, 30, 2, 0, 65, 3, 66, 1, 67})
	f.Add([]byte{2 * fuzzGridLo, 20, 16, 3})
	f.Add([]byte{fuzzGridLo | fuzzStarts, 12, 20, 4})
	f.Add([]byte{fuzzLoss | fuzzObserve | fuzzRestrict, 10, 50, 5})
	f.Add([]byte{fuzzLoss | 2*fuzzGridLo | fuzzDrop | fuzzStarts, 22, 10, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeSyncScenario(t, data)
		n := sc.nw.N()
		refLoss := sc.lossModel(t)
		flat := naiveDeliveries(sc.nw, sc.global, refLoss)

		protos := make([]SyncProtocol, n)
		scripts := make([]*scriptSync, n)
		for u := range protos {
			scripts[u] = &scriptSync{actions: sc.local[u]}
			protos[u] = scripts[u]
		}
		cfg := SyncConfig{
			Network:       sc.nw,
			Protocols:     protos,
			StartSlots:    sc.starts,
			MaxSlots:      len(sc.global),
			RunToMaxSlots: true,
			Loss:          sc.lossModel(t),
		}
		var events []refDelivery
		if sc.observe {
			cfg.Observer = ObserverFunc(func(e Event) {
				if e.Kind == EventDeliver {
					events = append(events, refDelivery{slot: e.Slot, from: e.From, to: e.To})
				}
			})
		}
		if sc.grid > 0 {
			cfg.Tiling = mustTiling(t, sc.nw, sc.grid, sc.grid)
		}
		if _, err := RunSync(cfg); err != nil {
			t.Fatal(err)
		}

		got := make([][]refDelivery, n)
		for u, s := range scripts {
			for _, msg := range s.delivered {
				got[u] = append(got[u], refDelivery{from: msg.From, to: topology.NodeID(u)})
			}
		}
		comparePerNode(t, "fuzz", got, perNode(n, flat))
		if sc.observe {
			if len(events) != len(flat) {
				t.Fatalf("observer saw %d delivery events, oracle %d", len(events), len(flat))
			}
			for i := range flat {
				if events[i] != flat[i] {
					t.Fatalf("delivery event %d = %+v, oracle %+v", i, events[i], flat[i])
				}
			}
		}
		if refLoss != nil {
			if a, b := cfg.Loss.Rng.Uint64(), refLoss.Rng.Uint64(); a != b {
				t.Fatal("engine and oracle consumed different numbers of erasure draws")
			}
		}
	})
}
