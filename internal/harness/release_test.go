//go:build go1.24

package harness

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestTrialsScratchReleasesJobs checks that the pipeline drops a job as soon
// as its run returns, not when the batch ends: trial 1 waits until trial
// 0's job is garbage-collected. With one worker trial 0 has finished before
// trial 1 starts; with more, trial 1 polls while trial 0 runs beside it.
func TestTrialsScratchReleasesJobs(t *testing.T) {
	type job struct{ payload []byte }
	var first weak.Pointer[job]
	_, err := TrialsScratch(2,
		func(trial int) (*job, error) {
			j := &job{payload: make([]byte, 1<<16)}
			if trial == 0 {
				first = weak.Make(j)
			}
			return j, nil
		},
		func(trial int, j *job, _ *Scratch) (int, error) {
			if trial == 0 {
				return len(j.payload), nil
			}
			deadline := time.Now().Add(5 * time.Second)
			for first.Value() != nil {
				if time.Now().After(deadline) {
					return 0, errors.New("trial 0's job is still reachable after its run returned")
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			return len(j.payload), nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
