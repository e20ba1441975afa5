package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
)

// goldenText holds the expected output digests, one "<key> <digest>" line
// each: the default-seed runs plus the tiny runs the package test makes.
//
//go:embed golden.txt
var goldenText string

func loadGolden() (map[string]string, error) {
	g := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("golden.txt:%d: want \"<key> <digest>\", got %q", n, line)
		}
		g[f[0]] = f[1]
	}
	return g, sc.Err()
}

// digestKey names one digest: the workload and everything that
// determines its output.
func (cfg config) digestKey() string {
	return fmt.Sprintf("%s|offset=%d|warmup=%d|measure=%d", cfg.workload, cfg.offset, cfg.warmup, cfg.measure)
}

// expectedDigest returns the digest every measured pass must reproduce:
// the golden one when golden.txt has this run's key, else the digest of
// the run's own reference computation. refOK is false when a golden
// exists and the reference disagrees with it.
func (cfg config) expectedDigest(ref string) (want string, refOK bool) {
	key := cfg.digestKey()
	g, ok := cfg.golden[key]
	if !ok {
		cfg.printf("digest %s %s (no golden for this key)", key, ref)
		return ref, true
	}
	if g != ref {
		cfg.printf("digest %s %s MISMATCH: golden %s", key, ref, g)
		return g, false
	}
	cfg.printf("digest %s %s (matches golden)", key, ref)
	return g, true
}

// digest accumulates output values into a SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

// f64 hashes exact float bits: a speed-up must not move any of them.
func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
