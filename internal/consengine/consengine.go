// Package consengine defines the pluggable consistency-engine contract
// (§4.2/§4.5, ROADMAP item 4): a consistency engine is a complete
// coherence protocol — page-fault handling, acquire/release/barrier/fence
// actions, write-notice generation, invalidation policy — packaged as a
// platform.Substrate plus a declaration of the memory model it
// implements. The declaration is load-bearing: campaign rows report it as
// the cell's model, and the conscheck litmus harness checks every
// engine's observed outcomes against its declared model's allowed-outcome
// set, so a protocol experiment can't silently weaken semantics.
//
// The package carries no protocol state of its own and is safe from any
// goroutine; concurrency contracts live with the engines implementing
// the interface.
package consengine

import (
	"fmt"
	"strings"

	"hamster/internal/platform"
)

// Model names a memory consistency model. The values are ordered
// strongest first, and the order is part of the contract: m <= o means an
// engine declaring m correctly serves every program written against o.
type Model int

// Supported consistency models, strongest first.
const (
	// Sequential: every access is globally ordered (Lamport). IVY's
	// synchronous write-invalidate protocol provides it natively; on
	// relaxed engines it exists only via explicit fencing.
	Sequential Model = iota
	// Processor: writes from one processor are seen in order (SMP
	// hardware's native model).
	Processor
	// Release: consistency actions tied to acquire/release pairs.
	Release
	// Scope: release consistency restricted to the scope (lock) under
	// which modifications happened — JiaJia's native model.
	Scope
	// Entry: consistency restricted to data explicitly bound to the sync
	// object. Implemented on the scope machinery: per-lock write notices
	// already confine invalidations to the pages modified under the lock,
	// so binding data to its lock yields entry semantics.
	Entry
)

// String names the model.
func (m Model) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Processor:
		return "processor"
	case Release:
		return "release"
	case Scope:
		return "scope"
	case Entry:
		return "entry"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Engine is one pluggable consistency engine: a complete substrate whose
// coherence protocol is self-contained, plus its model declaration.
type Engine interface {
	platform.Substrate
	// DeclaredModel is the strongest model the engine claims to
	// implement for data-race-free programs — the claim the conscheck
	// litmus harness verifies.
	DeclaredModel() Model
}

// Canonical engine selector names (Config.Engine, hamsterrun -engine).
const (
	// ScopeName is the default home-based Scope Consistency protocol
	// (JiaJia-style twins/diffs, write notices with locks).
	ScopeName = "scope"
	// EagerRCName is the eager Release Consistency variant of the scope
	// engine: notices broadcast at release, applied at any acquire.
	EagerRCName = "eager-rc"
	// IVYName is the IVY-style write-invalidate engine with distributed
	// dynamic ownership (sequential consistency).
	IVYName = "ivy"
)

// Names lists the selectable software-DSM consistency engines.
func Names() []string { return []string{ScopeName, EagerRCName, IVYName} }

// NormalizeName maps the empty selector to the default engine and
// validates the name, returning a descriptive error listing the valid
// selectors otherwise.
func NormalizeName(s string) (string, error) {
	if s == "" {
		return ScopeName, nil
	}
	for _, n := range Names() {
		if s == n {
			return s, nil
		}
	}
	return "", fmt.Errorf("consengine: unknown engine %q (valid: %s)", s, strings.Join(Names(), ", "))
}
