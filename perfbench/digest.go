package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
)

// defaultSeed is the workload seed whose outcome digests are recorded in
// recorded.json.
const defaultSeed = 1

//go:embed recorded.json
var recordedJSON []byte

// recorded holds what was measured once and pinned: the default-seed
// outcome digest of each in-process workload, and the daemon's latency
// limit and rate ladder.
type recorded struct {
	DefaultSeed uint64              `json:"default_seed"`
	Digests     map[string][]string `json:"digests"` // one per seed variant
	Daemon      struct {
		ReferenceRPS float64   `json:"reference_rps"`
		Ladder       []float64 `json:"ladder_rps"`
		P99LimitMs   float64   `json:"p99_limit_ms"`
		GenLagMaxMs  float64   `json:"gen_lag_p99_max_ms"`
	} `json:"daemon"`
}

func loadRecorded() (*recorded, error) {
	var r recorded
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		return nil, fmt.Errorf("recorded.json: %w", err)
	}
	if r.DefaultSeed != defaultSeed {
		return nil, fmt.Errorf("recorded.json pins seed %d, the benchmark's default is %d", r.DefaultSeed, defaultSeed)
	}
	return &r, nil
}

// digester hashes a simulated outcome. Floats are hashed by their bits,
// so any change to a simulated statistic changes the digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }

// checkDigests enforces the recorded default-seed digests of the first
// len(got) seed variants.
func checkDigests(rec *recorded, workload string, seed uint64, got []string) error {
	if seed != rec.DefaultSeed {
		return nil
	}
	want := rec.Digests[workload]
	if len(want) != seedVariants[workload] {
		return fmt.Errorf("recorded.json has %d digests for %s, want %d", len(want), workload, seedVariants[workload])
	}
	for v, d := range got {
		if d != want[v] {
			return incorrect("%s variant %d at the default seed produced outcome digest %s, recorded %s", workload, v, d, want[v])
		}
	}
	return nil
}

// recordDigests prints the default-seed digests of every in-process
// workload, in the form recorded.json keeps them.
func recordDigests() error {
	out := map[string][]string{}
	for _, f := range []struct {
		name string
		fn   func(seed uint64) (string, error)
	}{{"paper-fig5", fig5Digest}, {"fabric-dense", denseDigest}, {"fabric-churn", churnDigest}} {
		for v := 0; v < seedVariants[f.name]; v++ {
			d, err := f.fn(variantSeed(defaultSeed, v))
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", f.name, v, err)
			}
			out[f.name] = append(out[f.name], d)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
