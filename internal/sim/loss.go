package sim

import (
	"fmt"

	"m2hew/internal/rng"
)

// LossModel models unreliable channels — extension (b) in the paper's
// Section V. Each transmission that would otherwise arrive at a receiver is
// independently erased there with probability Prob, modeling deep fades:
// an erased transmission neither delivers a message nor interferes with
// other transmissions at that receiver (the receiver simply never sees its
// energy).
//
// Erasures are independent across receivers (a transmission may fade at one
// neighbor and be heard by another) and, in the asynchronous engine, are
// drawn independently per (receiver listening frame, transmission slot):
// one draw per overlapping slot, as listening frames resolve in global
// frame-end order (equal ends by ascending listener), within a frame by
// ascending sender, then frame, then slot.
//
// A nil *LossModel means reliable channels.
type LossModel struct {
	// Prob is the per-reception erasure probability in [0, 1).
	Prob float64
	// Rng drives the erasure draws; the engine consumes it in a
	// deterministic order, so runs remain reproducible.
	Rng *rng.Source
}

// NewLossModel validates and builds a loss model.
func NewLossModel(prob float64, r *rng.Source) (*LossModel, error) {
	if prob < 0 || prob >= 1 {
		return nil, fmt.Errorf("sim: loss probability %v outside [0,1)", prob)
	}
	if prob > 0 && r == nil {
		return nil, fmt.Errorf("sim: loss model needs a random source")
	}
	return &LossModel{Prob: prob, Rng: r}, nil
}

// validate checks a model the way NewLossModel would have. The engines'
// config validators call it so a model constructed directly as
// &LossModel{Prob: p} — bypassing NewLossModel, with no rng — surfaces as
// a config error at run start instead of a nil-pointer panic deep inside
// the slot loop at the first erasure draw. Safe on a nil model (reliable
// channels).
func (l *LossModel) validate() error {
	if l == nil {
		return nil
	}
	if l.Prob < 0 || l.Prob >= 1 {
		return fmt.Errorf("sim: loss probability %v outside [0,1)", l.Prob)
	}
	if l.Prob > 0 && l.Rng == nil {
		return fmt.Errorf("sim: loss model has probability %v but no rng (use NewLossModel)", l.Prob)
	}
	return nil
}

// erased draws one erasure decision; safe on a nil model.
func (l *LossModel) erased() bool {
	if l == nil || l.Prob <= 0 {
		return false
	}
	return l.Rng.Bernoulli(l.Prob)
}
