// hash.go defines the canonical scenario identity: a stable content hash
// over the fully-defaulted wire form. The hash is the key of everything
// durable in the campaign layer (DESIGN.md §13) — write-ahead journal
// records carry it so a resumed run refuses a journal written by a
// different campaign, and the content-addressed result cache maps it to a
// finished replicate vector so overlapping grids and re-runs reuse points
// across campaigns.
//
// Stability argument: the JSON wire form (json.go) is already the frozen
// byte format of campaign sinks and spec files — named enums, duration
// strings, omitted zero values — and WithDefaults is idempotent, so two
// scenarios that would execute identically marshal identically. The hash
// covers Replications (a scenario standing for 5 trials is a different
// unit of work than the same parameters run once) but nothing about HOW a
// run executes: worker counts, retry counts, and observability are
// execution knobs outside the Scenario and therefore outside its identity.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
)

// CanonicalScenarioJSON returns the scenario's identity bytes: the strict
// wire-form JSON of the fully-defaulted scenario. Two scenarios with equal
// canonical JSON execute identically (same trials, same seeds, same
// replicate vector).
func CanonicalScenarioJSON(sc Scenario) ([]byte, error) {
	return sc.WithDefaults().MarshalJSON()
}

// ScenarioHash returns the canonical content hash of the scenario: the
// lowercase hex SHA-256 of CanonicalScenarioJSON. It is a pure function of
// the defaulted scenario (replications included), stable across processes
// and runs.
func ScenarioHash(sc Scenario) (string, error) {
	data, err := CanonicalScenarioJSON(sc)
	if err != nil {
		return "", err
	}
	return HashCanonicalJSON(data), nil
}

// HashCanonicalJSON hashes bytes that CanonicalScenarioJSON returned:
// ScenarioHash(sc) is HashCanonicalJSON(CanonicalScenarioJSON(sc)). A
// caller that needs both the bytes and the hash encodes the scenario once.
func HashCanonicalJSON(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}
