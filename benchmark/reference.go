package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds the committed expectations: one checksum per agreement
// group, and the exact modeled results of the cells whose virtual time
// and message count are a pure function of (config, seed) on this code.
// Seeded cells were recorded at Seed and are only comparable there.
type reference struct {
	Seed      uint64                 `json:"seed"`
	Checksums map[string]string      `json:"checksums"`
	Exact     map[string]exactValues `json:"exact"`
}

type exactValues struct {
	VirtualNs uint64 `json:"virtual_ns"`
	Msgs      uint64 `json:"msgs"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// applies reports whether the committed values of a cell are comparable
// with a run at seed.
func (r *reference) applies(c *cell, seed uint64) bool { return !c.seeded || seed == r.Seed }

// check judges one pass. A cell fails when it errored, when its checksum
// differs from the committed one, or when it disagrees with another cell
// of its group in the same pass. drifted lists the flagged-exact cells
// whose modeled results moved: a diagnostic, not a failure.
func (r *reference) check(w *workload, outs []outcome, seed uint64) (failures []string, drifted []string) {
	first := map[string]string{}
	for i, c := range w.cells {
		o := outs[i]
		if o.err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.id, o.err))
			continue
		}
		want, known := r.Checksums[c.group]
		switch {
		case r.applies(c, seed) && !known:
			failures = append(failures, fmt.Sprintf("%s: no committed checksum for group %s", c.id, c.group))
		case r.applies(c, seed) && !c.sameCheck(o.check, want):
			failures = append(failures, fmt.Sprintf("%s: checksum %s, reference %s", c.id, o.check, want))
		}
		if prev, ok := first[c.group]; !ok {
			first[c.group] = o.check
		} else if !c.sameCheck(o.check, prev) {
			failures = append(failures, fmt.Sprintf("%s: checksum %s disagrees with its group's %s", c.id, o.check, prev))
		}
		if ex, ok := r.Exact[c.id]; ok && r.applies(c, seed) && (ex.VirtualNs != o.virtNs || ex.Msgs != o.msgs) {
			drifted = append(drifted, c.id)
		}
	}
	return failures, drifted
}

// referencePasses is how often a cell must repeat its modeled results to
// be flagged exact. Scheduling-dependent cells can repeat a handful of
// times by luck; twenty in a row they do not.
const referencePasses = 20

// recordReference runs every cell of both size sets several times at seed
// and returns what a reference file should hold: the checksums, and the
// modeled results of the cells on which they repeated exactly.
func recordReference(seed uint64) (*reference, error) {
	r := &reference{Seed: seed, Checksums: map[string]string{}, Exact: map[string]exactValues{}}
	for _, sz := range []sizes{fullSizes(), shortSizes()} {
		for _, w := range workloads(sz) {
			for _, c := range w.cells {
				var outs []outcome
				for p := 0; p < referencePasses; p++ {
					o := runCell(c, seed, nil)
					if o.err != nil {
						return nil, fmt.Errorf("%s: %w", c.id, o.err)
					}
					outs = append(outs, o)
				}
				if prev, ok := r.Checksums[c.group]; ok && !c.sameCheck(outs[0].check, prev) {
					return nil, fmt.Errorf("%s: checksum %s disagrees with its group's %s", c.id, outs[0].check, prev)
				}
				if _, ok := r.Checksums[c.group]; !ok {
					r.Checksums[c.group] = outs[0].check
				}
				exact := true
				for _, o := range outs {
					if !c.sameCheck(o.check, outs[0].check) {
						return nil, fmt.Errorf("%s: checksum moved between passes", c.id)
					}
					exact = exact && o.virtNs == outs[0].virtNs && o.msgs == outs[0].msgs
				}
				if exact {
					r.Exact[c.id] = exactValues{outs[0].virtNs, outs[0].msgs}
				}
			}
		}
	}
	return r, nil
}

func (r *reference) marshal() ([]byte, error) {
	raw, err := json.MarshalIndent(r, "", " ")
	return append(raw, '\n'), err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
