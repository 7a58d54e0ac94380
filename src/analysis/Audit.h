//===- analysis/Audit.h - Term-DAG invariant auditor (sbd::audit) -----------===//
///
/// \file
/// Deep structural validators for the hash-consed term DAGs. The smart
/// constructors establish the paper's similarity laws (Regex.h header
/// comment, Section 3) and the NNF/clean-branch discipline of transition
/// regexes (Section 4.1) *at construction time*; this subsystem re-verifies
/// them on the live arenas so that refactors of the interning/memoization
/// hot paths cannot silently corrupt the algebra the solver's soundness
/// rests on.
///
/// Three layers:
///
///  - Per-node checkers (`checkReNode`, `checkTrNode`, `checkIntervals`,
///    `checkDnf`): O(fan-out) validation of one interned node against the
///    similarity laws, the stored-hash/derived-attribute caches, and the
///    canonical interval form of the character algebra. Header-inline so the
///    arena code can run them at intern time without a link dependency on
///    the analysis library.
///
///  - Arena walkers (`checkRegexArena`, `checkTrArena`, `checkAll`,
///    Audit.cpp): full passes that additionally verify hash-cons
///    canonicality — no two structurally equal nodes with distinct ids —
///    and DAG topology (children precede parents).
///
///  - Build hooks (`SBD_AUDIT_*` in AuditHooks.h): under `-DSBD_AUDIT=ON`
///    every fresh intern is checked immediately, every memoized DNF result
///    is validated for clean-branch form, and every `checkSat` exit runs the
///    full arena audit. Violation counts feed the `sbd::obs` registry
///    (`audit_nodes_checked` / `audit_violations`). The default build
///    compiles all hooks out.
///
/// Violations are diagnostics, not exceptions: auditors never mutate or
/// abort, they return a `Report` so tests can assert on specific kinds and
/// production embeddings can export the counts.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_ANALYSIS_AUDIT_H
#define SBD_ANALYSIS_AUDIT_H

#include "core/TransitionRegex.h"
#include "re/Regex.h"
#include "support/Hashing.h"
#include "support/Metrics.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sbd {
namespace audit {

/// Every invariant class the auditor can report. Negative tests corrupt
/// nodes to prove each kind is actually detectable.
enum class ViolationKind : uint8_t {
  // --- Regex arena (similarity laws of Section 3 / Regex.h) ---------------
  ReDuplicateNode,   ///< two structurally equal nodes with distinct ids
  ReStaleHash,       ///< stored structural hash != recomputed hash
  ReBadTopology,     ///< child id >= node id (children must precede parents)
  ReBadArity,        ///< kid-count impossible for the node kind
  ReNestedBoolean,   ///< AND inside AND / OR inside OR (must be flattened)
  ReUnsortedOperands,///< |/& operand list not strictly sorted (or duplicated)
  ReUnmergedPreds,   ///< more than one predicate leaf under one |/& node
  ReAbsorbableChild, ///< ⊥/.*/ε child a smart constructor must have removed
  ReLeftNestedConcat,///< concat not right-associated (Theorem 7.3 form)
  ReDoubleNegation,  ///< ~~R survived (must collapse to R)
  ReBadLoopBounds,   ///< loop bounds a smart constructor must have rewritten
  ReBadNullable,     ///< cached ν(R) != recomputed from children
  ReBadMetrics,      ///< cached Size/NumPreds/StarHeight != recomputed
  ReEmptyPred,       ///< predicate leaf with ⊥ charset (must collapse to ⊥)
  // --- Character algebra (canonical interval form) -------------------------
  CsInvertedInterval,///< interval with Lo > Hi
  CsUnsortedIntervals,///< intervals not sorted by Lo
  CsOverlappingIntervals, ///< intervals intersect
  CsAdjacentIntervals,    ///< touching intervals not coalesced
  CsOutOfDomain,     ///< code point above 0x10FFFF
  // --- Transition-regex arena (NNF + clean DNF, Section 4.1) ---------------
  TrDuplicateNode,   ///< two structurally equal Tr nodes with distinct ids
  TrStaleHash,       ///< stored hash != recomputed hash
  TrBadTopology,     ///< child id >= node id
  TrBadArity,        ///< kid-count impossible for the Tr kind
  TrNestedBoolean,   ///< Union inside Union / Inter inside Inter
  TrUnsortedOperands,///< Union/Inter operands not strictly sorted
  TrUnmergedLeaves,  ///< more than one ERE leaf under one Union/Inter
  TrAbsorbableChild, ///< ⊥/.* leaf child a constructor must have removed
  TrTrivialIte,      ///< ite guard ⊥/⊤, equal branches, or collapsible nest
  TrUnsatIteGuard,   ///< ite guard unsatisfiable (⊥) — breaks the ite rule
  TrNotDnf,          ///< Inter node inside a claimed-DNF transition regex
  TrUnsatBranch,     ///< DNF path condition unsatisfiable (branch not clean)
  // --- Lazy DFA (CachedMatcher rows over minterm ids) ----------------------
  DfaRowMismatch,    ///< lazy-DFA row entry disagrees with uncompressed δdnf

  NumKinds ///< sentinel — keep last
};

constexpr size_t NumViolationKinds =
    static_cast<size_t>(ViolationKind::NumKinds);

/// Stable snake_case name for diagnostics and JSON output.
inline const char *kindName(ViolationKind K) {
  switch (K) {
  case ViolationKind::ReDuplicateNode: return "re_duplicate_node";
  case ViolationKind::ReStaleHash: return "re_stale_hash";
  case ViolationKind::ReBadTopology: return "re_bad_topology";
  case ViolationKind::ReBadArity: return "re_bad_arity";
  case ViolationKind::ReNestedBoolean: return "re_nested_boolean";
  case ViolationKind::ReUnsortedOperands: return "re_unsorted_operands";
  case ViolationKind::ReUnmergedPreds: return "re_unmerged_preds";
  case ViolationKind::ReAbsorbableChild: return "re_absorbable_child";
  case ViolationKind::ReLeftNestedConcat: return "re_left_nested_concat";
  case ViolationKind::ReDoubleNegation: return "re_double_negation";
  case ViolationKind::ReBadLoopBounds: return "re_bad_loop_bounds";
  case ViolationKind::ReBadNullable: return "re_bad_nullable";
  case ViolationKind::ReBadMetrics: return "re_bad_metrics";
  case ViolationKind::ReEmptyPred: return "re_empty_pred";
  case ViolationKind::CsInvertedInterval: return "cs_inverted_interval";
  case ViolationKind::CsUnsortedIntervals: return "cs_unsorted_intervals";
  case ViolationKind::CsOverlappingIntervals:
    return "cs_overlapping_intervals";
  case ViolationKind::CsAdjacentIntervals: return "cs_adjacent_intervals";
  case ViolationKind::CsOutOfDomain: return "cs_out_of_domain";
  case ViolationKind::TrDuplicateNode: return "tr_duplicate_node";
  case ViolationKind::TrStaleHash: return "tr_stale_hash";
  case ViolationKind::TrBadTopology: return "tr_bad_topology";
  case ViolationKind::TrBadArity: return "tr_bad_arity";
  case ViolationKind::TrNestedBoolean: return "tr_nested_boolean";
  case ViolationKind::TrUnsortedOperands: return "tr_unsorted_operands";
  case ViolationKind::TrUnmergedLeaves: return "tr_unmerged_leaves";
  case ViolationKind::TrAbsorbableChild: return "tr_absorbable_child";
  case ViolationKind::TrTrivialIte: return "tr_trivial_ite";
  case ViolationKind::TrUnsatIteGuard: return "tr_unsat_ite_guard";
  case ViolationKind::TrNotDnf: return "tr_not_dnf";
  case ViolationKind::TrUnsatBranch: return "tr_unsat_branch";
  case ViolationKind::DfaRowMismatch: return "dfa_row_mismatch";
  case ViolationKind::NumKinds: break;
  }
  return "?";
}

/// One detected invariant break, anchored at an arena node (or interval-list
/// index for raw charset checks).
struct Violation {
  ViolationKind Kind;
  uint32_t NodeId;
  std::string Detail;
};

/// Audit outcome: per-kind counts (always exact) plus the first
/// `MaxDetailed` violations with per-node diagnostics.
class Report {
public:
  /// Detail capture is capped so a systematically corrupted arena cannot
  /// balloon the report; the counts keep the true totals.
  static constexpr size_t MaxDetailed = 256;

  void add(ViolationKind K, uint32_t NodeId, std::string Detail) {
    ++Counts[static_cast<size_t>(K)];
    ++Total;
    if (Violations.size() < MaxDetailed)
      Violations.push_back({K, NodeId, std::move(Detail)});
  }

  /// True when no violation was recorded.
  bool ok() const { return Total == 0; }
  /// Total violations (all kinds).
  uint64_t total() const { return Total; }
  /// Violations of one kind.
  uint64_t count(ViolationKind K) const {
    return Counts[static_cast<size_t>(K)];
  }
  /// Nodes/interval-lists the audit visited (coverage diagnostic).
  uint64_t nodesChecked() const { return NodesChecked; }
  void noteChecked(uint64_t N = 1) { NodesChecked += N; }

  const std::vector<Violation> &violations() const { return Violations; }

  /// Folds another report into this one (counts, coverage, capped details).
  Report &operator+=(const Report &O) {
    for (size_t I = 0; I != NumViolationKinds; ++I)
      Counts[I] += O.Counts[I];
    Total += O.Total;
    NodesChecked += O.NodesChecked;
    for (const Violation &V : O.Violations) {
      if (Violations.size() >= MaxDetailed)
        break;
      Violations.push_back(V);
    }
    return *this;
  }

  /// Human-readable multi-line rendering ("audit: ok, N nodes" or one line
  /// per detailed violation plus per-kind totals).
  std::string str() const {
    std::string Out = "audit: ";
    if (ok()) {
      Out += "ok, " + std::to_string(NodesChecked) + " nodes checked\n";
      return Out;
    }
    Out += std::to_string(Total) + " violation(s) in " +
           std::to_string(NodesChecked) + " nodes\n";
    for (size_t I = 0; I != NumViolationKinds; ++I)
      if (Counts[I])
        Out += "  " +
               std::string(kindName(static_cast<ViolationKind>(I))) + ": " +
               std::to_string(Counts[I]) + "\n";
    for (const Violation &V : Violations)
      Out += "  node " + std::to_string(V.NodeId) + " [" +
             kindName(V.Kind) + "] " + V.Detail + "\n";
    return Out;
  }

private:
  std::vector<Violation> Violations;
  uint64_t Counts[NumViolationKinds] = {};
  uint64_t Total = 0;
  uint64_t NodesChecked = 0;
};

/// --- Character algebra: canonical interval form ---------------------------

/// Validates a raw interval list against the CharSet canonical form: sorted
/// by Lo, pairwise disjoint, non-adjacent (Hi + 1 < next Lo), every bound
/// within [0, MaxCodePoint]. Takes the raw vector (not a CharSet) so
/// negative tests can feed hand-built non-canonical lists.
inline void checkIntervals(const std::vector<CharRange> &Rs, uint32_t NodeId,
                           Report &Out) {
  Out.noteChecked();
  for (size_t I = 0; I != Rs.size(); ++I) {
    if (Rs[I].Lo > Rs[I].Hi)
      Out.add(ViolationKind::CsInvertedInterval, NodeId,
              "interval " + std::to_string(I) + " has Lo > Hi");
    if (Rs[I].Hi > MaxCodePoint)
      Out.add(ViolationKind::CsOutOfDomain, NodeId,
              "interval " + std::to_string(I) + " exceeds U+10FFFF");
    if (I == 0)
      continue;
    if (Rs[I].Lo < Rs[I - 1].Lo)
      Out.add(ViolationKind::CsUnsortedIntervals, NodeId,
              "interval " + std::to_string(I) + " sorts before predecessor");
    else if (Rs[I].Lo <= Rs[I - 1].Hi)
      Out.add(ViolationKind::CsOverlappingIntervals, NodeId,
              "interval " + std::to_string(I) + " overlaps predecessor");
    else if (Rs[I].Lo == Rs[I - 1].Hi + 1)
      Out.add(ViolationKind::CsAdjacentIntervals, NodeId,
              "interval " + std::to_string(I) +
                  " touches predecessor (not coalesced)");
  }
}

/// --- Regex arena: per-node similarity-law checks --------------------------

namespace detail {

/// Independent recomputation of RegexManager's structural node hash; must
/// stay field-for-field in sync with RegexManager::hashNode.
inline uint64_t recomputeReHash(const RegexNode &N) {
  uint64_t H = hashMix(static_cast<uint64_t>(N.Kind));
  H = hashCombine(H, N.PredIdx);
  H = hashCombine(H, N.LoopMin);
  H = hashCombine(H, N.LoopMax);
  for (Re Kid : N.Kids)
    H = hashCombine(H, Kid.Id);
  return H;
}

/// Structural ⊥ test (the arena interns exactly one Empty node, but the
/// audit never trusts distinguished handles it did not recompute).
inline bool isEmptyNode(const RegexManager &M, Re R) {
  return M.kind(R) == RegexKind::Empty;
}

/// Structural .* test: Star over the full predicate.
inline bool isTopNode(const RegexManager &M, Re R) {
  if (M.kind(R) != RegexKind::Star)
    return false;
  Re Kid = M.node(R).Kids[0];
  return M.kind(Kid) == RegexKind::Pred && M.predSet(Kid).isFull();
}

} // namespace detail

/// Validates one interned regex node against the similarity normal form:
/// flattened/sorted/deduped Boolean operands with no absorbable members,
/// right-associated concat, no double negation, canonical loop bounds, plus
/// the cached hash/ν/size attributes. O(fan-out); uses only the children's
/// stored attributes, so it is safe to call from inside the interning path
/// (children are always interned before their parent).
inline void checkReNode(const RegexManager &M, Re R, Report &Out) {
  Out.noteChecked();
  const RegexNode &N = M.node(R);
  auto bad = [&](ViolationKind K, std::string Detail) {
    Out.add(K, R.Id, std::move(Detail));
  };

  bool TopologyOk = true;
  for (Re Kid : N.Kids)
    if (Kid.Id >= R.Id) {
      bad(ViolationKind::ReBadTopology,
          "child " + std::to_string(Kid.Id) + " does not precede node");
      TopologyOk = false;
    }

  if (N.Hash != detail::recomputeReHash(N))
    bad(ViolationKind::ReStaleHash, "stored hash != recomputed hash");

  // Every check below reads the children's stored attributes; with a
  // forward (or out-of-range) child reference those reads are undefined.
  if (!TopologyOk)
    return;

  // Arity by kind.
  size_t Arity = N.Kids.size();
  bool ArityOk = true;
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    ArityOk = Arity == 0;
    break;
  case RegexKind::Concat:
    ArityOk = Arity == 2;
    break;
  case RegexKind::Star:
  case RegexKind::Loop:
  case RegexKind::Compl:
    ArityOk = Arity == 1;
    break;
  case RegexKind::Union:
  case RegexKind::Inter:
    ArityOk = Arity >= 2;
    break;
  }
  if (!ArityOk) {
    bad(ViolationKind::ReBadArity,
        std::to_string(Arity) + " children is invalid for this kind");
    return; // the shape checks below assume a sane arity
  }

  // Cached-attribute recomputation (ν, Size, ♯, star height).
  bool Nullable = false;
  uint32_t Size = 1, NumPreds = 0, StarHeight = 0;
  for (Re Kid : N.Kids) {
    const RegexNode &K = M.node(Kid);
    Size += K.Size;
    NumPreds += K.NumPreds;
    StarHeight = StarHeight < K.StarHeight ? K.StarHeight : StarHeight;
  }
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Pred:
    Nullable = false;
    break;
  case RegexKind::Epsilon:
  case RegexKind::Star:
    Nullable = true;
    break;
  case RegexKind::Concat:
    Nullable = M.nullable(N.Kids[0]) && M.nullable(N.Kids[1]);
    break;
  case RegexKind::Loop:
    Nullable = N.LoopMin == 0;
    break;
  case RegexKind::Union:
    Nullable = false;
    for (Re Kid : N.Kids)
      Nullable = Nullable || M.nullable(Kid);
    break;
  case RegexKind::Inter:
    Nullable = true;
    for (Re Kid : N.Kids)
      Nullable = Nullable && M.nullable(Kid);
    break;
  case RegexKind::Compl:
    Nullable = !M.nullable(N.Kids[0]);
    break;
  }
  if (N.Kind == RegexKind::Pred)
    NumPreds = 1;
  if (N.Kind == RegexKind::Star)
    StarHeight += 1;
  if (N.Kind == RegexKind::Loop && N.LoopMax == LoopInf)
    StarHeight += 1;
  if (N.Nullable != Nullable)
    bad(ViolationKind::ReBadNullable, "cached ν(R) disagrees with children");
  if (N.Size != Size || N.NumPreds != NumPreds || N.StarHeight != StarHeight)
    bad(ViolationKind::ReBadMetrics,
        "cached size/preds/star-height disagree with children");

  // Kind-specific normal forms.
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
    break;
  case RegexKind::Pred: {
    const CharSet &S = M.predSet(R);
    if (S.isEmpty())
      bad(ViolationKind::ReEmptyPred, "⊥ predicate must intern as Empty");
    checkIntervals(S.ranges(), R.Id, Out);
    break;
  }
  case RegexKind::Concat: {
    if (M.kind(N.Kids[0]) == RegexKind::Concat)
      bad(ViolationKind::ReLeftNestedConcat,
          "left child is a concat (not right-associated)");
    for (Re Kid : N.Kids) {
      if (detail::isEmptyNode(M, Kid))
        bad(ViolationKind::ReAbsorbableChild, "⊥ absorbs a concatenation");
      else if (M.kind(Kid) == RegexKind::Epsilon)
        bad(ViolationKind::ReAbsorbableChild, "ε is the unit of ·");
    }
    break;
  }
  case RegexKind::Star: {
    RegexKind KK = M.kind(N.Kids[0]);
    if (KK == RegexKind::Star)
      bad(ViolationKind::ReAbsorbableChild, "(R*)* must collapse to R*");
    if (KK == RegexKind::Epsilon || KK == RegexKind::Empty)
      bad(ViolationKind::ReAbsorbableChild, "ε*/⊥* must collapse to ε");
    if (KK == RegexKind::Loop && M.node(N.Kids[0]).LoopMin <= 1)
      bad(ViolationKind::ReAbsorbableChild,
          "(R{m,n})* with m <= 1 must collapse to R*");
    break;
  }
  case RegexKind::Loop: {
    Re Kid = N.Kids[0];
    if (N.LoopMin > N.LoopMax)
      bad(ViolationKind::ReBadLoopBounds, "LoopMin > LoopMax");
    if (N.LoopMax == 0)
      bad(ViolationKind::ReBadLoopBounds, "R{0,0} must collapse to ε");
    if (N.LoopMin == 1 && N.LoopMax == 1)
      bad(ViolationKind::ReBadLoopBounds, "R{1,1} must collapse to R");
    if (N.LoopMin == 0 && N.LoopMax == LoopInf)
      bad(ViolationKind::ReBadLoopBounds, "R{0,∞} must intern as R*");
    if (M.nullable(Kid) && N.LoopMin != 0)
      bad(ViolationKind::ReBadLoopBounds,
          "nullable body requires LoopMin == 0 (Section 3 semantics)");
    RegexKind KK = M.kind(Kid);
    if (KK == RegexKind::Epsilon || KK == RegexKind::Empty ||
        KK == RegexKind::Star)
      bad(ViolationKind::ReAbsorbableChild,
          "ε/⊥/R* loop bodies must collapse");
    break;
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    size_t Preds = 0;
    bool HasEps = false, HasOtherNullable = false;
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      Re Kid = N.Kids[I];
      if (I && !(N.Kids[I - 1] < Kid))
        bad(ViolationKind::ReUnsortedOperands,
            "operand " + std::to_string(I) +
                " not strictly greater than predecessor");
      if (M.kind(Kid) == N.Kind)
        bad(ViolationKind::ReNestedBoolean,
            "operand of the same associative kind must be flattened");
      if (M.kind(Kid) == RegexKind::Pred)
        ++Preds;
      if (detail::isEmptyNode(M, Kid))
        bad(ViolationKind::ReAbsorbableChild,
            N.Kind == RegexKind::Union ? "⊥ is the unit of |"
                                       : "⊥ absorbs &");
      if (detail::isTopNode(M, Kid))
        bad(ViolationKind::ReAbsorbableChild,
            N.Kind == RegexKind::Union ? ".* absorbs |"
                                       : ".* is the unit of &");
      if (M.kind(Kid) == RegexKind::Epsilon)
        HasEps = true;
      else if (M.nullable(Kid))
        HasOtherNullable = true;
    }
    if (Preds > 1)
      bad(ViolationKind::ReUnmergedPreds,
          "predicate leaves must merge through the character algebra");
    if (HasEps && N.Kind == RegexKind::Inter)
      bad(ViolationKind::ReAbsorbableChild,
          "ε under & must collapse the whole node to ε or ⊥");
    if (HasEps && N.Kind == RegexKind::Union && HasOtherNullable)
      bad(ViolationKind::ReAbsorbableChild,
          "ε under | is subsumed by another nullable operand");
    break;
  }
  case RegexKind::Compl: {
    Re Kid = N.Kids[0];
    if (M.kind(Kid) == RegexKind::Compl)
      bad(ViolationKind::ReDoubleNegation, "~~R must collapse to R");
    if (detail::isEmptyNode(M, Kid))
      bad(ViolationKind::ReAbsorbableChild, "~⊥ must intern as .*");
    if (detail::isTopNode(M, Kid))
      bad(ViolationKind::ReAbsorbableChild, "~.* must intern as ⊥");
    break;
  }
  }
}

/// --- Transition-regex arena: per-node NNF checks --------------------------

namespace detail {

/// Independent recomputation of TrManager's structural node hash; must stay
/// field-for-field in sync with TrManager::intern.
inline uint64_t recomputeTrHash(const TrNode &N) {
  uint64_t H = hashMix(static_cast<uint64_t>(N.Kind));
  H = hashCombine(H, N.LeafRe.Id);
  H = hashCombine(H, N.Cond.hash());
  for (Tr Kid : N.Kids)
    H = hashCombine(H, Kid.Id);
  return H;
}

inline bool isBotLeaf(const TrManager &T, Tr X) {
  return T.kind(X) == TrKind::Leaf &&
         isEmptyNode(T.regexManager(), T.node(X).LeafRe);
}

inline bool isTopLeaf(const TrManager &T, Tr X) {
  return T.kind(X) == TrKind::Leaf &&
         isTopNode(T.regexManager(), T.node(X).LeafRe);
}

} // namespace detail

/// Validates one interned transition-regex node: NNF shape (only the four
/// kinds exist; negation was pushed to the ERE leaves by construction),
/// flattened/sorted Boolean operands with merged leaves, satisfiable
/// non-trivial ite guards, and the stored structural hash.
inline void checkTrNode(const TrManager &T, Tr X, Report &Out) {
  Out.noteChecked();
  const TrNode &N = T.node(X);
  auto bad = [&](ViolationKind K, std::string Detail) {
    Out.add(K, X.Id, std::move(Detail));
  };

  bool TopologyOk = true;
  for (Tr Kid : N.Kids)
    if (Kid.Id >= X.Id) {
      bad(ViolationKind::TrBadTopology,
          "child " + std::to_string(Kid.Id) + " does not precede node");
      TopologyOk = false;
    }

  if (N.Hash != detail::recomputeTrHash(N))
    bad(ViolationKind::TrStaleHash, "stored hash != recomputed hash");

  // The kind-specific checks below read the children's stored state; with
  // a forward (or out-of-range) child reference those reads are undefined.
  if (!TopologyOk)
    return;

  switch (N.Kind) {
  case TrKind::Leaf:
    if (!N.Kids.empty())
      bad(ViolationKind::TrBadArity, "leaf must have no children");
    break;
  case TrKind::Ite: {
    if (N.Kids.size() != 2) {
      bad(ViolationKind::TrBadArity, "ite must have exactly two children");
      break;
    }
    checkIntervals(N.Cond.ranges(), X.Id, Out);
    if (N.Cond.isEmpty())
      bad(ViolationKind::TrUnsatIteGuard, "ite guard is ⊥ (dead branch)");
    else if (N.Cond.isFull())
      bad(ViolationKind::TrTrivialIte,
          "ite guard is ⊤ (must collapse to the then-branch)");
    if (N.Kids[0] == N.Kids[1])
      bad(ViolationKind::TrTrivialIte, "equal branches must collapse");
    if (T.kind(N.Kids[0]) == TrKind::Ite &&
        T.node(N.Kids[0]).Cond == N.Cond)
      bad(ViolationKind::TrTrivialIte,
          "then-branch repeats the guard (must collapse)");
    if (T.kind(N.Kids[1]) == TrKind::Ite &&
        T.node(N.Kids[1]).Cond == N.Cond)
      bad(ViolationKind::TrTrivialIte,
          "else-branch repeats the guard (must collapse)");
    break;
  }
  case TrKind::Union:
  case TrKind::Inter: {
    if (N.Kids.size() < 2) {
      bad(ViolationKind::TrBadArity,
          "associative node needs at least two children");
      break;
    }
    size_t Leaves = 0;
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      Tr Kid = N.Kids[I];
      if (I && !(N.Kids[I - 1] < Kid))
        bad(ViolationKind::TrUnsortedOperands,
            "operand " + std::to_string(I) +
                " not strictly greater than predecessor");
      if (T.kind(Kid) == N.Kind)
        bad(ViolationKind::TrNestedBoolean,
            "operand of the same associative kind must be flattened");
      if (T.kind(Kid) == TrKind::Leaf)
        ++Leaves;
      bool Bot = detail::isBotLeaf(T, Kid), Top = detail::isTopLeaf(T, Kid);
      if (Bot || Top)
        bad(ViolationKind::TrAbsorbableChild,
            Bot ? "⊥ leaf must be dropped (|) or absorb (&)"
                : ".* leaf must absorb (|) or be dropped (&)");
    }
    if (Leaves > 1)
      bad(ViolationKind::TrUnmergedLeaves,
          "ERE leaves must merge through the regex algebra");
    break;
  }
  }
}

/// Validates the solver normal form of \p X (Section 4.1): no Inter node
/// anywhere, and every root-to-leaf conditional path has a satisfiable
/// accumulated path condition ("clean" transition regex). Recursive over the
/// conditional tree; call on δdnf results, not on arbitrary nodes.
inline void checkDnf(const TrManager &T, Tr X, Report &Out) {
  struct Walker {
    const TrManager &T;
    Report &Out;
    void walk(Tr Cur, const CharSet &Path) {
      Out.noteChecked();
      const TrNode &N = T.node(Cur);
      switch (N.Kind) {
      case TrKind::Leaf:
        return;
      case TrKind::Ite: {
        if (N.Kids.size() != 2)
          return; // arity damage is checkTrNode's finding
        CharSet PathT = Path.intersectWith(N.Cond);
        CharSet PathF = Path.minus(N.Cond);
        if (PathT.isEmpty())
          Out.add(ViolationKind::TrUnsatBranch, Cur.Id,
                  "then-branch path condition is ⊥ (not pruned)");
        else
          walk(N.Kids[0], PathT);
        if (PathF.isEmpty())
          Out.add(ViolationKind::TrUnsatBranch, Cur.Id,
                  "else-branch path condition is ⊥ (not pruned)");
        else
          walk(N.Kids[1], PathF);
        return;
      }
      case TrKind::Union:
        for (Tr Kid : N.Kids)
          walk(Kid, Path);
        return;
      case TrKind::Inter:
        Out.add(ViolationKind::TrNotDnf, Cur.Id,
                "Inter node inside a DNF transition regex");
        return;
      }
    }
  };
  Walker{T, Out}.walk(X, CharSet::full());
}

/// --- Arena walkers (Audit.cpp, libsbd_analysis) ---------------------------

/// Full audit of a regex arena: every node through checkReNode plus the
/// hash-cons canonicality scan (no two structurally equal nodes with
/// distinct ids).
Report checkRegexArena(const RegexManager &M);

/// Full audit of a transition-regex arena (Tr nodes only; the underlying
/// regex arena is audited separately or via checkAll).
Report checkTrArena(const TrManager &T);

/// Audits everything reachable from a regex manager (nodes + pooled
/// predicate sets).
Report checkAll(const RegexManager &M);

/// Audits a transition-regex arena together with its regex arena — the
/// solver-facing entry point.
Report checkAll(const TrManager &T);

/// --- SBD_AUDIT build hooks ------------------------------------------------

/// Streams a non-ok report to stderr and feeds the violation counts into
/// the sbd::obs registry. Used by the intern-time and checkSat-exit hooks;
/// also callable from embedders that run audits manually.
inline void publish(const Report &R, const char *Where) {
  SBD_OBS_ADD(AuditNodesChecked, R.nodesChecked());
  if (R.ok())
    return;
  SBD_OBS_ADD(AuditViolations, R.total());
  std::fprintf(stderr, "sbd audit [%s]: %s", Where, R.str().c_str());
}

/// Intern-time hook: validates one freshly interned regex node.
inline void hookNewReNode(const RegexManager &M, Re R) {
  Report Out;
  checkReNode(M, R, Out);
  publish(Out, "intern re");
}

/// Intern-time hook: validates one freshly interned transition-regex node.
inline void hookNewTrNode(const TrManager &T, Tr X) {
  Report Out;
  checkTrNode(T, X, Out);
  publish(Out, "intern tr");
}

/// DNF-memoization hook: validates clean-branch form of a fresh δdnf result.
inline void hookDnfResult(const TrManager &T, Tr X) {
  Report Out;
  checkDnf(T, X, Out);
  publish(Out, "dnf");
}

/// checkSat-exit hook: full audit of both arenas (defined in Audit.cpp).
void hookCheckSatExit(const RegexManager &M, const TrManager &T);

} // namespace audit
} // namespace sbd

#endif // SBD_ANALYSIS_AUDIT_H
