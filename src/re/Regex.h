//===- re/Regex.h - Symbolic extended regular expressions ------------------===//
///
/// \file
/// Symbolic extended regexes (ERE, Section 3 of the paper) over the CharSet
/// alphabet theory, plus the bounded loops `R{m,n}` used throughout the
/// paper's benchmarks. Terms are immutable DAG nodes interned in a
/// `RegexManager` arena: structurally equal terms (modulo the paper's
/// "similarity" laws) receive identical node ids.
///
/// The smart constructors quotient terms by exactly the laws Section 4 lists
/// as the algebra the implementation works modulo:
///   - `&`/`|` are idempotent, associative, commutative (flattened, sorted,
///     deduplicated child lists);
///   - `.*` is absorbing for `|` and the unit of `&`; `⊥` is the unit of `|`
///     and absorbing for `&` and `·`; `ε` is the unit of `·`;
///   - `~~R = R`, `~⊥ = .*`, `~.* = ⊥`;
///   - concatenation is right-associated ("normalized" in Theorem 7.3);
///   - predicate-level Boolean structure is pushed into the character
///     algebra: `φ | ψ = [φ∨ψ]`, `φ & ψ = [φ∧ψ]`, `[⊥] = ⊥`.
///
/// Working modulo these laws is what makes the set of derivatives finite
/// (Theorem 7.1) and keeps the solver's graph small.
///
/// Storage (DESIGN.md §7): a node is a fixed-size, trivially copyable
/// record. Its children live in one kid pool per arena, addressed by offset
/// and count, and a predicate leaf holds a `PredId` into the arena's
/// predicate pool, which interns every CharSet once. CharSets are canonical
/// (charset/CharSet.h), so equal predicates get equal ids, and interning
/// compares ids and kid spans only: a hit allocates nothing and hashes no
/// heap member. The transition-regex layer (core/TransitionRegex.h) shares
/// the same predicate pool for its guards and path conditions.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_RE_REGEX_H
#define SBD_RE_REGEX_H

#include "charset/CharSet.h"
#include "support/Metrics.h"
#include "support/InternTable.h"

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace sbd {

/// The syntactic constructors of ERE (+ bounded loops).
enum class RegexKind : uint8_t {
  Empty,   ///< ⊥ — the empty language
  Epsilon, ///< ε — the singleton {ϵ}
  Pred,    ///< φ — one character satisfying a CharSet predicate
  Concat,  ///< R1 · R2 (binary, right-associated)
  Star,    ///< R*
  Loop,    ///< R{m,n}; n == LoopInf means unbounded
  Union,   ///< R1 | ... | Rk, k >= 2, flattened/sorted/deduped
  Inter,   ///< R1 & ... & Rk, k >= 2, flattened/sorted/deduped
  Compl,   ///< ~R
};

/// Sentinel for an unbounded loop upper bound.
inline constexpr uint32_t LoopInf = std::numeric_limits<uint32_t>::max();

/// An interned regex handle. Cheap to copy; valid only together with the
/// RegexManager that produced it. Equality is semantic equality modulo the
/// similarity laws above (same manager).
struct Re {
  uint32_t Id = 0;

  friend bool operator==(Re A, Re B) { return A.Id == B.Id; }
  friend bool operator!=(Re A, Re B) { return A.Id != B.Id; }
  friend bool operator<(Re A, Re B) { return A.Id < B.Id; }
};

/// An interned predicate: an id in a PredPool. Equal CharSets get equal
/// ids, so id equality is predicate equivalence (same pool).
struct PredId {
  uint32_t Id = 0;

  friend bool operator==(PredId A, PredId B) { return A.Id == B.Id; }
  friend bool operator!=(PredId A, PredId B) { return A.Id != B.Id; }
  friend bool operator<(PredId A, PredId B) { return A.Id < B.Id; }
};

/// The predicate pool of one arena: each CharSet interned once, plus ∧, ∨
/// and − memoized on id pairs. Ids are never reused; ⊥ and ⊤ are interned
/// first, as `Bot` and `Top`. Its interning counts go to its own stats(),
/// not to an arena's: predicates are not arena nodes.
class PredPool {
public:
  static constexpr PredId Bot{0};
  static constexpr PredId Top{1};
  /// Entries one memo may hold before it is emptied. A memo is only a
  /// cache, and the δdnf product of n paths with n guards would otherwise
  /// keep n² entries for as long as the arena lives.
  static constexpr size_t MaxMemoEntries = size_t{1} << 16;

  PredPool();

  /// The id of \p Set, interning it on first sight.
  PredId intern(const CharSet &Set);
  /// The CharSet of \p P. The reference is valid until the next intern.
  const CharSet &set(PredId P) const { return Sets[P.Id]; }
  /// Does \p P name an entry of this pool?
  bool contains(PredId P) const { return P.Id < Sets.size(); }
  size_t size() const { return Sets.size(); }

  /// φ ∧ ψ.
  PredId conj(PredId A, PredId B);
  /// φ ∨ ψ.
  PredId disj(PredId A, PredId B);
  /// φ ∧ ¬ψ.
  PredId minus(PredId A, PredId B);

  /// Entries in the ∧/∨/− memos together (diagnostics).
  size_t memoEntries() const {
    return AndMemo.size() + OrMemo.size() + MinusMemo.size();
  }
  /// Interning counters of the pool itself.
  const CacheStats &stats() const { return Stats; }

private:
  enum class Op : uint8_t { And, Or, Minus };
  PredId apply(Op O, PredId A, PredId B);
  /// Do the spans [min, max] of two non-empty sets not meet? Then ∧ is ⊥
  /// and − is the first operand, with no memo entry (δdnf meets this for
  /// most path/guard pairs of a union of separate characters).
  bool hullsDisjoint(PredId A, PredId B) const;

  std::vector<CharSet> Sets;
  InternTable Table;
  FlatMap64 AndMemo, OrMemo, MinusMemo;
  CacheStats Stats;
};

/// Interned storage for one regex node: a fixed-size record. The children
/// are the KidsBegin..KidsBegin+NumKids slice of the manager's kid pool;
/// read them through RegexManager::kids() / kid(). Exposed read-only via
/// RegexManager::node().
struct RegexNode {
  RegexKind Kind;
  bool Nullable;         ///< ν(R): ϵ ∈ L(R)
  PredId Pred{};         ///< Pred only: the predicate, in preds()
  uint32_t LoopMin = 0;  ///< Loop only
  uint32_t LoopMax = 0;  ///< Loop only (LoopInf = unbounded)
  uint32_t KidsBegin = 0; ///< offset of the first child in the kid pool
  uint32_t NumKids = 0;  ///< children (2 for Concat, n-ary for |, &)
  uint32_t Size;         ///< syntax-tree node count (shared nodes recounted)
  uint32_t NumPreds;     ///< ♯(R): predicate leaves in the syntax tree
  uint32_t StarHeight;   ///< nesting depth of * / unbounded loops
  uint64_t Hash = 0;     ///< precomputed structural hash (interning key)
};
static_assert(std::is_trivially_copyable_v<RegexNode>,
              "regex nodes are plain records; children live in the kid pool");

/// Arena + hash-consing table for regexes, and the home of the smart
/// constructors. All `Re` handles flowing through the library belong to one
/// manager; mixing managers is a programming error.
class RegexManager {
public:
  RegexManager();

  /// --- Leaf constructors ---------------------------------------------------

  /// ⊥ (empty language).
  Re empty() const { return EmptyRe; }
  /// ε.
  Re epsilon() const { return EpsilonRe; }
  /// `.` — any single character.
  Re anyChar() const { return AnyCharRe; }
  /// `.*` — the full language Σ*; absorbing for `|`, unit of `&`.
  Re top() const { return TopRe; }
  /// Predicate leaf [φ]; collapses to ⊥ when φ ≡ ⊥.
  Re pred(const CharSet &Set);
  /// Single concrete character.
  Re chr(uint32_t Cp) { return pred(CharSet::singleton(Cp)); }
  /// Concatenation of the characters of a code-point word (ε when empty).
  Re word(const std::vector<uint32_t> &Cps);
  /// Concatenation of the bytes of an ASCII string literal.
  Re literal(const std::string &Ascii);

  /// --- Composite constructors (normalizing) --------------------------------

  /// R1 · R2, right-associated; ⊥ absorbs, ε is the unit.
  Re concat(Re A, Re B);
  /// Folds a list into a right-associated concatenation.
  Re concatList(const std::vector<Re> &Rs);
  /// R*.
  Re star(Re R);
  /// R{Min,Max} (Max may be LoopInf). Requires Min <= Max and Max >= 1
  /// unless Min == Max == 0 (which is ε).
  Re loop(Re R, uint32_t Min, uint32_t Max);
  /// R{0,1}.
  Re opt(Re R) { return loop(R, 0, 1); }
  /// R{1,∞}.
  Re plus(Re R) { return loop(R, 1, LoopInf); }
  /// R1 | R2 (ACI-normalized).
  Re union_(Re A, Re B);
  /// OR(S) over a list (⊥ when empty).
  Re unionList(std::span<const Re> Rs);
  /// R1 & R2 (ACI-normalized).
  Re inter(Re A, Re B);
  /// AND(S) over a list (.* when empty).
  Re interList(std::span<const Re> Rs);
  /// ~R.
  Re complement(Re R);
  /// R1 & ~R2 — difference convenience.
  Re diff(Re A, Re B) { return inter(A, complement(B)); }

  /// --- Node access ---------------------------------------------------------

  const RegexNode &node(Re R) const { return Nodes[R.Id]; }
  RegexKind kind(Re R) const { return Nodes[R.Id].Kind; }
  /// ν(R): does R accept the empty string?
  bool nullable(Re R) const { return Nodes[R.Id].Nullable; }
  /// R's children. The span points into the kid pool, so it is valid only
  /// until the next node is interned; a loop that builds terms while it
  /// walks the children reads them with kid() instead.
  std::span<const Re> kids(Re R) const {
    const RegexNode &N = Nodes[R.Id];
    return {KidPool.data() + N.KidsBegin, N.NumKids};
  }
  /// R's \p I-th child.
  Re kid(Re R, size_t I) const { return KidPool[Nodes[R.Id].KidsBegin + I]; }
  /// The CharSet of a Pred node.
  const CharSet &predSet(Re R) const;
  /// Number of interned nodes (diagnostics).
  size_t numNodes() const { return Nodes.size(); }
  /// Number of slots in the kid pool (diagnostics, audit bounds).
  size_t kidPoolSize() const { return KidPool.size(); }

  /// The arena's predicate pool, shared with the TrManager over it.
  PredPool &preds() { return Preds; }
  const PredPool &preds() const { return Preds; }

  /// Test-only backdoor for the audit negative tests (tests/AuditTest.cpp):
  /// mutable access to interned storage so a test can corrupt an invariant
  /// and prove sbd::audit detects it. Breaks the hash-consing contract —
  /// never call outside audit tests.
  RegexNode &mutableNodeForAudit(Re R) { return Nodes[R.Id]; }
  /// Same, for R's slice of the kid pool.
  std::span<Re> mutableKidsForAudit(Re R) {
    const RegexNode &N = Nodes[R.Id];
    return {KidPool.data() + N.KidsBegin, N.NumKids};
  }

  /// --- Capacity & instrumentation -----------------------------------------

  /// Pre-sizes the node arena and interning tables for roughly \p NumNodes
  /// interned terms (avoids rehash/reallocation churn on large workloads).
  void reserve(size_t NumNodes);
  /// Interning/probe counters (see support/CacheStats.h).
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

  /// --- Structural properties (Theorem 7.3 side conditions) ----------------

  /// True when R contains no ⊥ subterm (predicates are never unsat by
  /// construction). Every non-⊥ term built by this manager is clean.
  bool isClean(Re R) const;
  /// True when every concatenation is right-associated. Always true for
  /// terms built by this manager; exists to validate the invariant.
  bool isNormalized(Re R) const;
  /// R ∈ RE: no `~` or `&` anywhere.
  bool isPlainRe(Re R) const;
  /// R ∈ B(RE): Boolean combination (|, &, ~) of plain RE terms.
  bool isBooleanOverRe(Re R) const;
  /// True when R contains no bounded-loop node (the paper's RE grammar has
  /// no loops; Theorem 7.3's ♯(R)+3 bound presumes loop-free terms).
  bool isLoopFree(Re R) const;
  /// ΨR: the distinct predicates occurring in R.
  std::vector<CharSet> collectPredicates(Re R) const;

  /// Renders R using the textual regex syntax accepted by RegexParser.
  /// Printing stops once the text passes \p MaxBytes, so a result longer
  /// than that is a prefix of the full rendering (a shared subterm prints
  /// once per occurrence, so the full text can be exponential in the DAG).
  std::string toString(Re R, size_t MaxBytes = SIZE_MAX) const;

private:
  /// Interns \p Node with children \p Kids (which must not point into the
  /// kid pool): hashes and compares the span, and copies it into the pool
  /// only when the node is new.
  Re intern(RegexNode Node, std::span<const Re> Kids = {});
  /// Predicate leaf of an id in preds(); ⊥ for PredPool::Bot.
  Re pred(PredId P);
  /// Counts one predicate-leaf lookup of \p P in Stats: a miss the first
  /// time pred() sees P, a hit after. The pool is shared with the TR layer,
  /// whose lookups must not decide what the regex layer counts.
  void countPredLookup(PredId P);

  /// Appends R's children if R has the given associative kind, else R
  /// itself. Used to flatten `|` / `&`.
  void flattenInto(RegexKind K, Re R, std::vector<Re> &Out) const;

  /// ∨ (or ∧) of the predicate leaves of one |/& node, interned in preds().
  PredId mergePreds(bool IsUnion, std::span<const PredId> Ps);
  Re makeBoolean(RegexKind K, std::span<const Re> Rs);

  void printPrec(Re R, int ParentPrec, std::string &Out, size_t Limit) const;

  std::vector<RegexNode> Nodes;
  std::vector<Re> KidPool;
  InternTable ConsTable;
  PredPool Preds;
  /// Per pool id: has pred() interned it yet (see countPredLookup)?
  std::vector<bool> PredLeafSeen;
  /// makeBoolean's scratch (it never re-enters itself).
  std::vector<Re> FlatScratch, KidScratch;
  std::vector<PredId> PredScratch;
  std::vector<uint8_t> DropScratch;
  CacheStats Stats;

  Re EmptyRe, EpsilonRe, AnyCharRe, TopRe;
};

} // namespace sbd

#endif // SBD_RE_REGEX_H
