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
//===----------------------------------------------------------------------===//

#ifndef SBD_RE_REGEX_H
#define SBD_RE_REGEX_H

#include "charset/CharSet.h"
#include "support/Metrics.h"
#include "support/InternTable.h"

#include <cstdint>
#include <limits>
#include <string>
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

/// Interned storage for one regex node. Exposed read-only via
/// RegexManager::node().
struct RegexNode {
  RegexKind Kind;
  bool Nullable;         ///< ν(R): ϵ ∈ L(R)
  uint32_t PredIdx = 0;  ///< Pred only: index into the manager's CharSet table
  uint32_t LoopMin = 0;  ///< Loop only
  uint32_t LoopMax = 0;  ///< Loop only (LoopInf = unbounded)
  std::vector<Re> Kids;  ///< children (binary for Concat, n-ary for |, &)
  uint32_t Size;         ///< syntax-tree node count (shared nodes recounted)
  uint32_t NumPreds;     ///< ♯(R): predicate leaves in the syntax tree
  uint32_t StarHeight;   ///< nesting depth of * / unbounded loops
  uint64_t Hash = 0;     ///< precomputed structural hash (interning key)
};

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
  Re unionList(std::vector<Re> Rs);
  /// R1 & R2 (ACI-normalized).
  Re inter(Re A, Re B);
  /// AND(S) over a list (.* when empty).
  Re interList(std::vector<Re> Rs);
  /// ~R.
  Re complement(Re R);
  /// R1 & ~R2 — difference convenience.
  Re diff(Re A, Re B) { return inter(A, complement(B)); }

  /// --- Node access ---------------------------------------------------------

  const RegexNode &node(Re R) const { return Nodes[R.Id]; }
  RegexKind kind(Re R) const { return Nodes[R.Id].Kind; }
  /// ν(R): does R accept the empty string?
  bool nullable(Re R) const { return Nodes[R.Id].Nullable; }
  /// The CharSet of a Pred node.
  const CharSet &predSet(Re R) const;
  /// Number of interned nodes (diagnostics).
  size_t numNodes() const { return Nodes.size(); }

  /// Test-only backdoor for the audit negative tests (tests/AuditTest.cpp):
  /// mutable access to interned storage so a test can corrupt an invariant
  /// and prove sbd::audit detects it. Breaks the hash-consing contract —
  /// never call outside audit tests.
  RegexNode &mutableNodeForAudit(Re R) { return Nodes[R.Id]; }

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
  Re intern(RegexNode Node);
  uint64_t hashNode(const RegexNode &Node) const;
  bool nodeEquals(const RegexNode &A, const RegexNode &B) const;
  uint32_t internSet(const CharSet &Set);

  /// Appends R's children if R has the given associative kind, else R
  /// itself. Used to flatten `|` / `&`.
  void flattenInto(RegexKind K, Re R, std::vector<Re> &Out) const;

  Re makeBoolean(RegexKind K, std::vector<Re> Rs);

  void printPrec(Re R, int ParentPrec, std::string &Out, size_t Limit) const;

  std::vector<RegexNode> Nodes;
  InternTable ConsTable;
  std::vector<CharSet> Sets;
  InternTable SetTable;
  CacheStats Stats;

  Re EmptyRe, EpsilonRe, AnyCharRe, TopRe;
};

} // namespace sbd

#endif // SBD_RE_REGEX_H
