//===- core/TransitionRegex.h - Transition regexes (Section 4) -------------===//
///
/// \file
/// Transition regexes TR — the paper's key device for making derivatives of
/// *symbolic* extended regexes well defined. A transition regex denotes a
/// function Σ → ERE; the grammar is
///
///   TR ::= ERE | if(φ, TR, TR) | TR "|" TR | TR "&" TR | ~TR
///
/// We represent TR in negation normal form by construction: the negation
/// constructor immediately applies the dual (Lemma 4.2: ~τ ≡ τ̄), pushing
/// complement into the ERE leaves. Consequently interned nodes have only
/// four kinds (Leaf, Ite, Union, Inter) and the DNF transformation only has
/// to eliminate Inter.
///
/// The *disjunctive normal form* used by the solver (δdnf in Section 5) is
/// the shape with conditionals and unions outermost and all `&`/`~` pushed
/// into ERE leaves; `TrManager::dnf` computes it with the lift rules of
/// Section 4.1, pruning branches whose accumulated path condition is
/// unsatisfiable ("clean" transition regexes).
///
/// Storage (DESIGN.md §7): a node is a fixed-size, trivially copyable
/// record. An ite guard is a `PredId` in the regex manager's predicate pool,
/// which the TR layer shares, and the children live in one kid pool
/// addressed by offset and count. δdnf's path conditions are predicate ids
/// too, so a branch costs one memoized ∧ and one − on id pairs and a memo
/// key is a pair of integers.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CORE_TRANSITIONREGEX_H
#define SBD_CORE_TRANSITIONREGEX_H

#include "re/Regex.h"

#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace sbd {

/// Node kinds of (NNF) transition regexes.
enum class TrKind : uint8_t {
  Leaf,  ///< an ERE (constant function)
  Ite,   ///< if(φ, then, else)
  Union, ///< t1 | ... | tk, k >= 2
  Inter, ///< t1 & ... & tk, k >= 2
};

/// An interned transition-regex handle (valid with its TrManager).
struct Tr {
  uint32_t Id = 0;

  friend bool operator==(Tr A, Tr B) { return A.Id == B.Id; }
  friend bool operator!=(Tr A, Tr B) { return A.Id != B.Id; }
  friend bool operator<(Tr A, Tr B) { return A.Id < B.Id; }
};

/// Interned storage for one transition-regex node: a fixed-size record.
/// The children are the KidsBegin..KidsBegin+NumKids slice of the manager's
/// kid pool; read them through TrManager::kids() / kid().
struct TrNode {
  TrKind Kind;
  PredId Cond{};          ///< Ite only: the guard, in the predicate pool
  Re LeafRe{};            ///< Leaf only
  uint32_t KidsBegin = 0; ///< offset of the first child in the kid pool
  uint32_t NumKids = 0;   ///< Ite: 2 (then, else); Union/Inter: n-ary
  uint64_t Hash = 0;      ///< precomputed structural hash (interning key)
};
static_assert(std::is_trivially_copyable_v<TrNode>,
              "TR nodes are plain records; children live in the kid pool");

/// One edge of a DNF transition regex: reading a character in [[Guard]] can
/// move to Target. Guards of arcs from different union branches may overlap
/// (the structure is alternating/nondeterministic); guards along one
/// conditional path are disjoint by construction.
struct TrArc {
  CharSet Guard;
  Re Target;
};

/// An arc as the witness search takes it: the least member of its guard in
/// witness order (`CharSet::sample()`), and its target.
struct TrArcSample {
  uint32_t Ch;
  Re Target;
};

/// Arena + algebra for transition regexes.
class TrManager {
public:
  explicit TrManager(RegexManager &M);

  RegexManager &regexManager() { return M; }
  const RegexManager &regexManager() const { return M; }
  const TrNode &node(Tr T) const { return Nodes[T.Id]; }
  TrKind kind(Tr T) const { return Nodes[T.Id].Kind; }
  /// T's children. The span points into the kid pool, so it is valid only
  /// until the next node is interned; a loop that builds terms while it
  /// walks the children reads them with kid() instead.
  std::span<const Tr> kids(Tr T) const {
    const TrNode &N = Nodes[T.Id];
    return {KidPool.data() + N.KidsBegin, N.NumKids};
  }
  /// T's \p I-th child.
  Tr kid(Tr T, size_t I) const { return KidPool[Nodes[T.Id].KidsBegin + I]; }
  /// The guard of an Ite node, as a CharSet.
  const CharSet &condSet(Tr T) const { return M.preds().set(Nodes[T.Id].Cond); }
  size_t numNodes() const { return Nodes.size(); }
  /// Number of slots in the kid pool (diagnostics, audit bounds).
  size_t kidPoolSize() const { return KidPool.size(); }

  /// Pre-sizes the node arena and interning table.
  void reserve(size_t NumNodes);
  /// Drops the negate/DNF memo slots and the δdnf product memos (the
  /// interned nodes stay — handles remain valid). Lets long-running
  /// processes bound memo growth.
  void clearCaches();
  /// Drops only the δdnf product memos, freeing their storage.
  /// RegexSolver::checkSat calls it per query, so a warm arena keeps them
  /// no larger than one query's δdnf work.
  void dropProductMemos();
  /// Interning/memo counters.
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

  /// Test-only backdoor for the audit negative tests (tests/AuditTest.cpp):
  /// mutable access to interned storage so a test can corrupt an invariant
  /// and prove sbd::audit detects it. Never call outside audit tests.
  TrNode &mutableNodeForAudit(Tr T) { return Nodes[T.Id]; }
  /// Same, for T's slice of the kid pool.
  std::span<Tr> mutableKidsForAudit(Tr T) {
    const TrNode &N = Nodes[T.Id];
    return {KidPool.data() + N.KidsBegin, N.NumKids};
  }

  /// --- Constructors (normalizing) ------------------------------------------

  /// Embeds an ERE as a constant transition regex.
  Tr leaf(Re R);
  /// The constant ⊥ function (unit of |, absorbing for &).
  Tr bot() const { return BotTr; }
  /// The constant .* function (absorbing for |, unit of &).
  Tr topLeaf() const { return TopTr; }

  /// if(Cond, T, F); simplifies trivial/equal branches and collapses
  /// directly nested conditionals on the same predicate.
  Tr ite(PredId Cond, Tr T, Tr F);
  Tr ite(const CharSet &Cond, Tr T, Tr F) {
    return ite(M.preds().intern(Cond), T, F);
  }

  /// τ1 | ... | τk. Flattens, drops ⊥, absorbs .*, merges all ERE leaves
  /// into a single leaf through the regex algebra.
  Tr union_(std::span<const Tr> Ts);
  Tr union2(Tr A, Tr B) {
    const Tr Ts[2] = {A, B};
    return union_(Ts);
  }

  /// τ1 & ... & τk (dual of union_).
  Tr inter(std::span<const Tr> Ts);
  Tr inter2(Tr A, Tr B) {
    const Tr Ts[2] = {A, B};
    return inter(Ts);
  }

  /// ~τ via the negation dual τ̄ (Lemma 4.2); the result is again in NNF.
  Tr negate(Tr T);

  /// τ · R — concatenation of a regex on the right (Section 4). Invokes the
  /// lift rules when τ contains `&` above a conditional.
  Tr concatRe(Tr T, Re R);

  /// --- Semantics ------------------------------------------------------------

  /// τ(a): instantiates the function at a concrete character.
  Re apply(Tr T, uint32_t Ch) const;

  /// --- Normal form ----------------------------------------------------------

  /// Computes the solver's normal form: conditionals/unions outermost, no
  /// Inter nodes, unsatisfiable branches pruned (lift rules, Section 4.1).
  Tr dnf(Tr T);

  /// True when T contains no Inter node (i.e. the ite/or/ere propagation
  /// rules of Fig. 3a can consume it directly).
  bool isDnf(Tr T) const;

  /// --- Structure queries ------------------------------------------------------

  /// Appends the distinct ERE leaves of T to \p Out. When \p IncludeTrivial
  /// is false, skips the trivial states ⊥ and .* (this is Q(τ) of Section 7).
  void collectLeaves(Tr T, std::vector<Re> &Out,
                     bool IncludeTrivial = false) const;

  /// Enumerates the arcs of a DNF transition regex: all (guard, target)
  /// pairs with satisfiable guards and non-⊥ targets, in the order their
  /// targets first appear. Arcs with the same target are merged by guard
  /// union. The guards are computed in the shared predicate pool, which
  /// this call may grow.
  std::vector<TrArc> arcs(Tr T);

  /// The arcs of arcs(T), in the same order, each with its guard's
  /// sample() in place of the guard. The sample of a union of guards is the
  /// `witnessLess`-least of their samples, so no guard is built. The span
  /// points into a buffer that the next call reuses.
  std::span<const TrArcSample> arcSamples(Tr T);

  /// Appends the distinct conditional guards occurring in T (the set
  /// Guards(∆(q)) used for local mintermization in Section 8.3).
  void collectGuards(Tr T, std::vector<CharSet> &Out) const;

  /// Renders T in the paper's notation, e.g. `if(φ, R2&~(1.*), R2)`.
  std::string toString(Tr T) const;

private:
  /// Interns \p Node with children \p Kids (which must not point into the
  /// kid pool): hashes and compares the span, and copies it into the pool
  /// only when the node is new.
  Tr intern(TrNode Node, std::span<const Tr> Kids = {});
  /// Shared body of union_ and inter: \p K is Union or Inter.
  Tr makeBoolean(TrKind K, std::span<const Tr> Ts);

  /// DNF worker: rewrites T under the (satisfiable) path condition \p Path.
  /// Memoized for non-leaf T.
  Tr dnfUnder(Tr T, PredId Path);
  /// One rewrite step of dnfUnder for a non-leaf T, without the memo.
  Tr dnfUnderStep(Tr T, PredId Path);
  /// Distributes an ERE leaf conjunct over a DNF transition regex.
  Tr leafInterDnf(Re A, Tr B);
  /// Computes DNF(A & B) where A is already DNF, under \p Path (memoized).
  Tr interDnf(Tr A, Tr B, PredId Path);
  /// One distribution step of interDnf, without the memo.
  Tr interDnfStep(Tr A, Tr B, PredId Path);
  /// The K-node (Union or Inter) of the kids pushed on KidStack since
  /// \p Base, which it pops.
  Tr popBoolean(TrKind K, size_t Base);

  /// Appends T's unmerged (guard, target) arcs to RawArcs.
  void collectArcs(Tr T, PredId Guard);
  /// Walks T's arcs once and merges them by target, in first-appearance
  /// order: \p First(guard, target) opens a target's arc and
  /// \p More(index, guard) adds a guard to the arc opened index-th.
  template <class FirstFn, class MoreFn>
  void mergeArcs(Tr T, FirstFn First, MoreFn More);

  /// Tombstone for the dense id-indexed memo slots.
  static constexpr uint32_t MissingId = 0xFFFFFFFFu;

  RegexManager &M;
  std::vector<TrNode> Nodes;
  std::vector<Tr> KidPool;
  InternTable ConsTable;
  /// Inline memo slots indexed by Tr id; ids are dense, so a flat vector
  /// with a tombstone beats a hash map on every lookup.
  std::vector<uint32_t> NegateMemo;
  std::vector<uint32_t> DnfMemo;
  /// δdnf product memos (DESIGN.md §7), dropped per query by
  /// dropProductMemos(); a path is a PredId in M.preds():
  ///   UnderMemo: (T << 32 | path) -> dnfUnder(T, path);
  ///   InterMemo: (A, B, path) -> interDnf(A, B, path).
  FlatMap64 UnderMemo;
  FlatMap<IdTriple> InterMemo;
  /// makeBoolean's scratch (it never re-enters itself).
  std::vector<Tr> FlatScratch, KidScratch;
  std::vector<Re> LeafScratch;
  /// The Union/Inter kids of the recursive builders (negate, concatRe, the
  /// δdnf workers). A frame pushes each kid once its recursive call has
  /// returned and pops its kids in popBoolean, so frames nest like a stack.
  std::vector<Tr> KidStack;
  /// mergeArcs' scratch: the unmerged arcs, and a Re id -> merged-arc index
  /// slot per regex node (MissingId outside a call).
  std::vector<std::pair<PredId, Re>> RawArcs;
  std::vector<uint32_t> ArcIndex;
  std::vector<TrArcSample> Samples;
  CacheStats Stats;
  Tr BotTr, TopTr;
};

} // namespace sbd

#endif // SBD_CORE_TRANSITIONREGEX_H
