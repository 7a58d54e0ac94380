//===- charset/CharSet.h - Canonical interval sets over code points --------===//
///
/// \file
/// The concrete character predicate type of the alphabet theory (Section 3 of
/// the paper). A `CharSet` denotes a subset of the Unicode code-point domain
/// [0, 0x10FFFF] and is stored as a canonical, sorted, coalesced list of
/// closed intervals. Canonicity makes the algebra *extensional*: two
/// predicates are equivalent iff they are equal, so the satisfiability checks
/// the derivative engine performs (e.g. "is φ ∧ ψ ≡ ⊥?") are cheap structural
/// set operations rather than solver calls.
///
/// The tuple (domain, CharSet, denotation, empty(), full(), unionWith,
/// intersectWith, complement) forms the effective Boolean algebra A that the
/// whole library is parameterized by.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CHARSET_CHARSET_H
#define SBD_CHARSET_CHARSET_H

#include "support/Unicode.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sbd {

/// A closed interval [Lo, Hi] of code points.
struct CharRange {
  uint32_t Lo;
  uint32_t Hi;

  friend bool operator==(const CharRange &A, const CharRange &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
};

/// A set of Unicode code points in canonical interval form.
///
/// Invariants: intervals are sorted by Lo, pairwise disjoint, and
/// non-adjacent (Ranges[I].Hi + 1 < Ranges[I+1].Lo), and every Hi <=
/// MaxCodePoint. The empty set is the empty vector. Because of canonicity,
/// operator== decides semantic equivalence.
class CharSet {
public:
  /// The empty predicate ⊥ (denotes ∅).
  CharSet() = default;

  /// The full predicate ⊤ (denotes the whole domain).
  static CharSet full();

  /// The singleton {Cp}.
  static CharSet singleton(uint32_t Cp);

  /// The closed range [Lo, Hi]. \p Lo must be <= \p Hi.
  static CharSet range(uint32_t Lo, uint32_t Hi);

  /// Builds a set from arbitrary (possibly overlapping, unsorted) ranges.
  static CharSet fromRanges(std::vector<CharRange> Rs);

  /// --- Named classes used by the regex surface syntax -------------------

  /// ASCII digits 0-9 (the paper's \\d / φd).
  static CharSet digit();
  /// Word characters [0-9A-Za-z_] (the paper's \\w).
  static CharSet word();
  /// Whitespace [\\t\\n\\v\\f\\r ] (\\s).
  static CharSet space();
  /// ASCII letters [A-Za-z] (the "?" of Fig 1).
  static CharSet asciiLetter();

  /// --- Boolean algebra operations ----------------------------------------

  /// φ ∨ ψ.
  CharSet unionWith(const CharSet &Other) const;
  /// φ ∧ ψ.
  CharSet intersectWith(const CharSet &Other) const;
  /// ¬φ (relative to the full code-point domain).
  CharSet complement() const;
  /// φ ∧ ¬ψ.
  CharSet minus(const CharSet &Other) const;

  /// --- Queries -----------------------------------------------------------

  /// φ ≡ ⊥?
  bool isEmpty() const { return Ranges.empty(); }
  /// φ ≡ ⊤?
  bool isFull() const {
    return Ranges.size() == 1 && Ranges[0].Lo == 0 &&
           Ranges[0].Hi == MaxCodePoint;
  }
  /// a ∈ [[φ]]?
  bool contains(uint32_t Cp) const;
  /// [[φ]] ⊆ [[ψ]]?
  bool isSubsetOf(const CharSet &Other) const;
  /// [[φ]] ∩ [[ψ]] = ∅? (Faster than building the intersection.)
  bool isDisjointFrom(const CharSet &Other) const;
  /// Number of code points denoted (fits in uint64).
  uint64_t count() const;
  /// Smallest element; nullopt when empty.
  std::optional<uint32_t> minElement() const;
  /// The least member in witness order (`witnessLess`): the least
  /// printable ASCII member (0x21-0x7E) if there is one, else the least
  /// code point; nullopt when empty. Every Sat witness the solvers return
  /// under breadth-first search is the shortlex-least word of the language
  /// in this character order, built from these representatives.
  std::optional<uint32_t> sample() const;

  /// Underlying canonical intervals (read-only).
  const std::vector<CharRange> &ranges() const { return Ranges; }

  /// Structural (= semantic) equality.
  friend bool operator==(const CharSet &A, const CharSet &B) {
    return A.Ranges == B.Ranges;
  }

  /// Total order for use in sorted containers (lexicographic on intervals).
  friend bool operator<(const CharSet &A, const CharSet &B);

  /// Stable structural hash.
  uint64_t hash() const;

  /// Renders the set using regex character-class syntax, e.g. `[0-9a-f]`,
  /// `.` for the full set, `[]` for the empty set.
  std::string str() const;

private:
  explicit CharSet(std::vector<CharRange> Canonical)
      : Ranges(std::move(Canonical)) {}

  std::vector<CharRange> Ranges;
};

/// The character order of witnesses: printable ASCII (0x21-0x7E) before
/// every other code point, and by code point within each part. sample()
/// picks the least member of a set in this order.
inline bool witnessLess(uint32_t A, uint32_t B) {
  const bool PrintA = A - 0x21u <= 0x7Eu - 0x21u;
  const bool PrintB = B - 0x21u <= 0x7Eu - 0x21u;
  return PrintA != PrintB ? PrintA : A < B;
}

/// Total order on sets (lexicographic on canonical intervals); declared at
/// namespace scope so out-of-class definitions match a prior declaration.
bool operator<(const CharSet &A, const CharSet &B);

/// Computes Minterms(S) (Section 3): the coarsest partition of the domain
/// induced by the predicate set \p Sets. Each returned CharSet is nonempty,
/// they are pairwise disjoint, and their union is the full domain. For each
/// input predicate φ and each minterm α, either [[α]] ⊆ [[φ]] or
/// [[α]] ∩ [[φ]] = ∅. The result size is at most 2^|Sets| but typically
/// linear in the number of interval boundaries.
std::vector<CharSet> computeMinterms(const std::vector<CharSet> &Sets);

} // namespace sbd

#endif // SBD_CHARSET_CHARSET_H
