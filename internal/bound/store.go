package bound

import "sync"

// Store shares STRUCTURAL cuts across engines — and therefore across
// concurrently planning fleet members working the same fabric structure.
//
// A structural cut records an occupancy/space-budget or port-budget
// rejection: a lattice vector that is infeasible for purely
// demand-independent reasons. That fact holds for every plan over the same
// structure regardless of the demand set it plans against, which is exactly
// why Bind keeps structural cuts across demand-only rebinds. The store extends the same reasoning
// across engine instances: each engine publishes the structural cuts it
// learns into a shard keyed by its structural signature, and Bind pulls
// the shard's accumulated cuts into the engine it is (re)binding.
//
// Only structural cuts cross the boundary — demand-dependent cuts are
// facts about one demand set and never leave their engine. Identical
// structural signatures imply identical task structure (the signature
// hashes topology, outages, budgets, θ, split and the block decomposition),
// so lattice indices are directly comparable between the engines sharing
// a shard.
//
// Sharing is verdict-neutral for plan bytes: a cut marks a vector already
// proven infeasible, and both deadness and table construction treat cuts
// as "this completion path does not exist" — pruning work the search
// would have discarded anyway. What sharing changes is how much search
// effort each member spends rediscovering the same rejections (visible in
// states-expanded metrics, which is why deterministic benchmarks plan
// with sharing off).
//
// The store itself is safe for concurrent use; the engines attached to it
// remain single-goroutine as before (publish and import both run on the
// owning planner's goroutine, only the shard map is shared).
type Store struct {
	mu     sync.Mutex
	shards map[uint64]map[int]struct{}
}

// NewStore returns an empty cross-engine cut store.
func NewStore() *Store {
	return &Store{shards: make(map[uint64]map[int]struct{})}
}

// publish records one structural cut under the structural signature.
func (s *Store) publish(structSig uint64, idx int) {
	s.mu.Lock()
	shard := s.shards[structSig]
	if shard == nil {
		shard = make(map[int]struct{})
		s.shards[structSig] = shard
	}
	shard[idx] = struct{}{}
	s.mu.Unlock()
}

// importInto copies the shard for e's bound structural signature into e's
// cut set, returning how many cuts were new to e. Caller must hold e on
// its owning goroutine with e.bound already established (Bind calls it
// last).
func (s *Store) importInto(e *Engine) int {
	if e.nVec == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	shard := s.shards[e.structSig]
	if len(shard) == 0 {
		return 0
	}
	fresh := 0
	for idx := range shard {
		if idx < 0 || idx >= e.nVec {
			continue // defensive: a foreign shape cannot corrupt the lattice
		}
		if e.cut == nil {
			e.cut = make([]uint8, e.nVec)
		}
		if e.cut[idx]&cutKnown == 0 {
			e.cuts++
			fresh++
		}
		e.cut[idx] |= cutKnown | cutStructural
	}
	return fresh
}

// Attach connects the engine to a shared cut store. Attach before
// planning: structural cuts learned while attached are published as they
// are discovered, and every Bind imports the accumulated shard for the
// bound structural signature. Attaching nil detaches.
func (e *Engine) Attach(s *Store) { e.store = s }

// CrossHits returns the engine-lifetime count of structural cuts imported
// from the attached store that the engine had not learned itself.
func (e *Engine) CrossHits() int { return e.crossHits }
