package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/exp"
)

// pinFile holds one seed's exact outputs as recorded at some commit, so a
// later commit's outputs can be checked against them byte for byte.
type pinFile struct {
	Seed      int64                  `json:"seed"`
	Commit    string                 `json:"commit"`
	Workloads map[string]workloadPin `json:"workloads"`
}

// workloadPin is one workload's pinned outputs. Length is the trace
// length they were recorded at; a pin recorded at another scale is stale.
type workloadPin struct {
	Length uint64 `json:"length"`
	// SHA256 maps an output name (a Result, a figure cell, the rendered
	// figure) to the SHA-256 of its JSON or text.
	SHA256 map[string]string `json:"sha256,omitempty"`
	// Rows are exact Fig. 8 rows, the reference sampled rows are checked
	// against.
	Rows []exp.Fig8Row `json:"rows,omitempty"`
}

func pinPath(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// loadPins reads the seed's pin file; a missing file is (nil, nil).
func loadPins(dir string, seed int64) (*pinFile, error) {
	data, err := os.ReadFile(pinPath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", pinPath(dir, seed), err)
	}
	if p.Seed != seed {
		return nil, fmt.Errorf("%s records seed %d", pinPath(dir, seed), p.Seed)
	}
	return &p, nil
}

func savePins(dir string, p *pinFile) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(pinPath(dir, p.Seed), append(data, '\n'), 0o644)
}

// expect compares an output digest against the pin, when the workload is
// pinned. It reports whether the output matches (or nothing is pinned).
func (r *run) expect(name, got string) bool {
	if r.pin == nil {
		return true
	}
	want, ok := r.pin.SHA256[name]
	return ok && want == got
}

// pinned is the pinned digest of an output, for messages.
func (r *run) pinned(name string) string {
	if r.pin == nil {
		return "(unpinned)"
	}
	return r.pin.SHA256[name]
}

// checkPinScale fails the run when its pin was recorded at another trace
// length: comparing outputs of different inputs would fail every check
// for a reason that has nothing to do with the code under test.
func (r *run) checkPinScale(length uint64) error {
	if r.pin != nil && r.pin.Length != length {
		return fmt.Errorf("pin for seed %d was recorded at %d records, this run uses %d; rerun -pin", r.seed, r.pin.Length, length)
	}
	return nil
}

// digest is the SHA-256 of v's JSON encoding: the identity of an exact
// output.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("encoding output for its digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
