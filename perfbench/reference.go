package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"strconv"
)

// referenceJSON holds the committed expected digests and deterministic
// counts: workload (with a "/short" suffix for --short) → "<seed>/<key>" →
// value, where seed is the seed of the inputs the key's output came from.
// Outputs without an entry are still checked, against the first value
// their key took in the run (rounds must repeat exactly).
//
//go:embed reference.json
var referenceJSON []byte

type reference map[string]map[string]string

func loadReference(data []byte) (reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return ref, nil
}

func referenceKey(workload string, short bool) string {
	if short {
		return workload + "/short"
	}
	return workload
}

// recordReference merges observed into the reference file at path under
// the run's workload.
func recordReference(path string, opts options, observed map[string]string) error {
	ref := make(reference)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if ref, err = loadReference(data); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	key := referenceKey(opts.workload, opts.short)
	if ref[key] == nil {
		ref[key] = make(map[string]string)
	}
	for k, v := range observed {
		ref[key][k] = v
	}
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// checker compares a run's outputs with the reference and with the first
// value each key took in this run, and counts operations and failures.
type checker struct {
	want map[string]string
	seen map[string]string
	seed uint64
	log  io.Writer

	attempted, failed int
}

func newChecker(want map[string]string, seed uint64, log io.Writer) *checker {
	return &checker{want: want, seen: make(map[string]string), seed: seed, log: log}
}

// match checks an output of the run's own seed; see matchSeed.
func (c *checker) match(key, got string) bool { return c.matchSeed(c.seed, key, got) }

// matchSeed reports whether got is the expected value for key on inputs
// generated from seed: the reference's when it has one, and in any case
// the value the key took first in this run.
func (c *checker) matchSeed(seed uint64, key, got string) bool {
	key = strconv.FormatUint(seed, 10) + "/" + key
	ok := true
	if w, has := c.want[key]; has && w != got {
		fmt.Fprintf(c.log, "perfbench: %s = %s, reference %s\n", key, got, w)
		ok = false
	}
	if s, has := c.seen[key]; has {
		if s != got {
			fmt.Fprintf(c.log, "perfbench: %s = %s, earlier in this run %s\n", key, got, s)
			ok = false
		}
	} else {
		c.seen[key] = got
	}
	return ok
}

// count matches a deterministic count of the run's own seed under the key
// "count.<name>".
func (c *checker) count(name string, v int64) bool { return c.countSeed(c.seed, name, v) }

func (c *checker) countSeed(seed uint64, name string, v int64) bool {
	return c.matchSeed(seed, "count."+name, strconv.FormatInt(v, 10))
}

// ops records n operations, failed of which did not check out.
func (c *checker) ops(n, failed int) {
	c.attempted += n
	c.failed += failed
}

// digester hashes a sequence of values into a short hex digest.
type digester struct {
	h hash.Hash
	b []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) str(s string) {
	d.b = append(append(d.b[:0], s...), 0)
	d.h.Write(d.b)
}

func (d *digester) int(v int64) {
	d.b = append(strconv.AppendInt(d.b[:0], v, 10), ';')
	d.h.Write(d.b)
}

func (d *digester) float(v float64) {
	d.b = append(strconv.AppendFloat(d.b[:0], v, 'g', -1, 64), ';')
	d.h.Write(d.b)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
