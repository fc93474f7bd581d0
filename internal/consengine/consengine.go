// Package consengine defines the pluggable consistency-engine contract
// (§4.2/§4.5, ROADMAP item 4): a consistency engine is a complete
// coherence protocol — page-fault handling, acquire/release/barrier/fence
// actions, write-notice generation, invalidation policy — packaged as a
// platform.Substrate plus a declaration of the memory model it
// implements. The declaration is load-bearing: core.ConsMgr refuses model
// requests stronger than the declaration, and the conscheck litmus
// harness checks every engine's observed outcomes against its declared
// model's allowed-outcome set, so a protocol experiment can't silently
// weaken semantics.
//
// The package carries no protocol state of its own and is safe from any
// goroutine; concurrency contracts live with the engines implementing
// the interfaces.
package consengine

import (
	"fmt"
	"strings"

	"hamster/internal/memsim"
	"hamster/internal/platform"
)

// Model names a memory consistency model, strongest first — the order is
// part of the contract (see AtLeast).
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

// AtLeast reports whether m's guarantees subsume o's: an engine declaring
// m correctly serves every program written against o. Models are ordered
// strongest first, so this is a simple comparison.
func (m Model) AtLeast(o Model) bool { return m <= o }

// ParseModel resolves a model name (a substrate's capability string) to
// its Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "sequential":
		return Sequential, nil
	case "processor":
		return Processor, nil
	case "release":
		return Release, nil
	case "scope":
		return Scope, nil
	case "entry":
		return Entry, nil
	default:
		return 0, fmt.Errorf("consengine: unknown consistency model %q (valid: sequential, processor, release, scope, entry)", s)
	}
}

// Engine is one pluggable consistency engine: a complete substrate whose
// coherence protocol is self-contained, plus its identity and model
// declaration.
type Engine interface {
	platform.Substrate
	// EngineName returns the engine's canonical selector name (one of
	// Names).
	EngineName() string
	// DeclaredModel is the strongest model the engine claims to
	// implement for data-race-free programs — the claim the conscheck
	// litmus harness verifies.
	DeclaredModel() Model
}

// Composable is an Engine whose consistency actions can be driven by an
// external synchronization layer — the hook multi-DSM composition (§6)
// uses to unify two engines under one lock/barrier layer. Both methods
// must be called from the node's own goroutine.
type Composable interface {
	Engine
	// FlushInterval publishes the node's interval modifications and
	// returns its write notices (empty for engines, like IVY, whose
	// writes are globally visible immediately).
	FlushInterval(node int) []memsim.PageID
	// InvalidatePages applies foreign write notices: the node drops any
	// stale local copies of the given pages. Pages the engine does not
	// hold (or whose copies cannot be stale) are ignored.
	InvalidatePages(node int, pages []memsim.PageID)
}

// capsEngine adapts a substrate that does not declare itself (the
// hardware platforms) into an Engine via its capability string.
type capsEngine struct {
	platform.Substrate
}

func (c capsEngine) EngineName() string { return c.Kind().String() }

func (c capsEngine) DeclaredModel() Model {
	if m, err := ParseModel(c.Caps().ConsistencyModel); err == nil {
		return m
	}
	return Release
}

// Wrap presents any substrate as an Engine: substrates that already are
// one (the software-DSM engines, multi-DSM compositions) pass through;
// hardware substrates get their declaration derived from the capability
// string. This is what lets the conformance harness run one battery over
// every substrate kind.
func Wrap(sub platform.Substrate) Engine {
	if e, ok := sub.(Engine); ok {
		return e
	}
	return capsEngine{sub}
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
