//===- analysis/RegexAnalyzer.h - Pre-solve structural analysis -------------===//
///
/// \file
/// A single-pass, memoized bottom-up static analysis over the hash-consed
/// term DAG (DESIGN.md §14). For every node it computes a `RegexFeatures`
/// record — constructor counts, tree vs. DAG size, star height, Boolean
/// nesting depth, a counter blow-up bound (product of loop spans), a
/// minterm-count estimate, a required literal prefix, the nullability
/// skeleton, and an integer ReDoS/state-blow-up risk score — plus a
/// fragment classification used by the portfolio router
/// (portfolio/Portfolio.h), the admission-control cap in
/// RegexSolver::checkSat, the `sbd-analyze` CLI, and the fuzz oracle's
/// analyzer-soundness laws.
///
/// The analysis is O(|DAG|): results are memoized per interned node id in
/// fixed pages of 64 records, so shared subterms are folded exactly once per
/// manager lifetime and repeated `analyze()` calls are O(1) lookups. Because
/// the arena is append-only, memoized entries never go stale, and because a
/// page never moves, a record reference stays valid across later calls.
///
/// Everything in the record is integral and deterministic: two structurally
/// equal regexes (same toString, any manager) produce identical features.
/// The fuzz oracle enforces this (OracleLaw::AnalyzerStability).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_ANALYSIS_REGEXANALYZER_H
#define SBD_ANALYSIS_REGEXANALYZER_H

#include "re/Regex.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sbd {
namespace analysis {

/// Fragment classification, ordered from tamest to most dangerous. The
/// first matching rule wins (see RegexAnalyzer::classify and DESIGN.md §14
/// for the exact decision table).
enum class ReClass : uint8_t {
  Literal,      ///< exactly one word (possibly empty): concat of singletons
  Sparse,       ///< loop-free and star-free positive fragment
  KleeneOnly,   ///< positive fragment (no ~/&) with iteration
  BooleanHeavy, ///< mentions & or ~ anywhere
  CounterHeavy, ///< bounded-loop blow-up bound above the unroll threshold
  Adversarial,  ///< risk score above threshold: cap before it burns memory
};

/// Stable snake_case name for JSON output and baselines.
const char *reClassName(ReClass C);

/// Saturation ceiling for the counter blow-up bound. Products are clamped
/// here instead of wrapping so comparisons stay monotone.
constexpr uint64_t BlowupSat = UINT64_MAX / 2;

/// Per-node feature record. Plain data, fixed size — a 1M-node arena costs
/// ~100MB of memo at most, and typical arenas are thousands of nodes.
struct RegexFeatures {
  /// Longest literal prefix tracked inline (code points). Longer prefixes
  /// are truncated and marked incomplete.
  static constexpr uint32_t PrefixCap = 8;

  // --- Constructor counts over the syntax *tree* (shared nodes recounted,
  // saturating at UINT32_MAX so the counts compose like RegexNode::Size).
  uint32_t NumPred = 0;
  uint32_t NumConcat = 0;
  uint32_t NumStar = 0;
  uint32_t NumLoop = 0;
  uint32_t NumUnion = 0;
  uint32_t NumInter = 0;
  uint32_t NumCompl = 0;

  // --- Shape.
  uint32_t TreeSize = 0;   ///< syntax-tree node count (RegexNode::Size)
  uint32_t DagSize = 0;    ///< distinct interned nodes reachable
  uint32_t StarHeight = 0; ///< nesting depth of * / unbounded loops
  uint32_t BooleanDepth = 0; ///< max nesting of &/~ on any root path
  uint32_t ComplDepth = 0;   ///< max nesting of ~ alone on any root path
  uint32_t MaxLoopBound = 0; ///< largest finite loop min/max mentioned

  /// Upper bound on the multiplicative state blow-up from bounded loops:
  /// along any root-to-leaf path, the product of (span+1) of the loops
  /// crossed, where span = max-min (LoopInf counts its min). Saturates at
  /// BlowupSat. 1 for loop-free terms.
  uint64_t CounterBlowup = 1;

  /// Number of distinct predicate CharSets reachable (≤ means the minterm
  /// partition has at most 2^DistinctPreds classes).
  uint32_t DistinctPreds = 0;
  /// Minterm-count estimate: min(2^DistinctPreds, 2^30). The derivative
  /// engines' alphabet compressor can never produce more classes.
  uint64_t MintermBound = 1;

  // --- Nullability skeleton.
  bool Nullable = false; ///< ν(R) — mirrored from the node for convenience
  /// Under-approximation: true only when the analysis *proved* L(R) = ∅
  /// without derivatives (Empty leaves propagated through concat/inter).
  bool EmptyLang = false;

  // --- Required literal prefix. Every w ∈ L(R) starts with
  // Prefix[0..PrefixLen). Sound by construction; the fuzz oracle checks it
  // against every accepted word (OracleLaw::AnalyzerPrefix).
  uint32_t Prefix[PrefixCap] = {};
  uint32_t PrefixLen = 0;
  /// L(R) is exactly the single word Prefix[0..PrefixLen).
  bool PrefixExact = false;
  /// PrefixLen was not truncated at PrefixCap.
  bool PrefixComplete = true;

  /// Integer ReDoS/state-blow-up risk score in [0, 100]; see DESIGN.md §14
  /// for the formula. ≥ RiskAdversarial classifies as Adversarial.
  uint32_t Risk = 0;
  /// Fragment classification (first-match over the rules in classify()).
  ReClass Class = ReClass::Sparse;

  /// Serializes the record as a stable JSON object (the `sbd-analyze
  /// --json` / slow-query artifact contract).
  std::string json() const;
};

/// The analyzer. Owns a Re.Id-indexed memo; one instance per RegexManager,
/// shared by every engine on that arena (same lifetime rules as the
/// solver's derivative memos).
class RegexAnalyzer {
public:
  explicit RegexAnalyzer(const RegexManager &Mgr) : M(Mgr) {}

  /// Analyzes R (folding any not-yet-seen reachable nodes) and returns its
  /// feature record. O(new nodes) then O(1); iterative, so deep
  /// right-nested concat chains cannot overflow the stack. The reference
  /// stays valid for the analyzer's lifetime: later calls add pages, they
  /// never move the records already computed.
  const RegexFeatures &analyze(Re R);

  /// Memo lookup without analysis; valid only after analyze() covered R.
  const RegexFeatures &cached(Re R) const { return record(R.Id); }

  /// Nodes folded so far (== memo entries filled). Diagnostics.
  size_t nodesAnalyzed() const { return NodesAnalyzed; }

private:
  /// Records per memo page. Small on purpose: a fresh per-query solver
  /// stack pays for its first page up front, and a 1024-record page (139
  /// KB) is a fresh mmap to zero on every such stack (DESIGN.md §14).
  static constexpr uint32_t PageBits = 6;
  static constexpr uint32_t PageSize = 1u << PageBits;
  struct Page {
    RegexFeatures Records[PageSize];
    uint64_t Done = 0; ///< bit i: Records[i] is valid
  };

  const RegexFeatures &record(uint32_t Id) const {
    return Pages[Id >> PageBits]->Records[Id & (PageSize - 1)];
  }
  RegexFeatures &record(uint32_t Id) {
    return Pages[Id >> PageBits]->Records[Id & (PageSize - 1)];
  }
  bool done(uint32_t Id) const {
    return (Id >> PageBits) < Pages.size() &&
           (Pages[Id >> PageBits]->Done >> (Id & (PageSize - 1)) & 1);
  }
  void fold(Re R);

  const RegexManager &M;
  std::vector<std::unique_ptr<Page>> Pages;
  size_t NodesAnalyzed = 0;

  // Scratch for the root-level DAG walk in fold() (reused across calls).
  std::vector<uint32_t> Mark;
  std::vector<Re> Walk;
  std::vector<uint32_t> PredIdxs;
  uint32_t Epoch = 0;
};

/// Classification thresholds (shared with DESIGN.md §14 and the tests).
constexpr uint32_t RiskAdversarial = 60; ///< Risk ≥ this ⇒ Adversarial
constexpr uint64_t CounterHeavyBlowup = 64; ///< CounterBlowup > this ⇒ heavy

/// Coarse upper bound on derivative-graph states a solve may materialize:
/// DagSize · CounterBlowup, clamped at 2^30. Recorded as
/// SolveStats::PredictedStates so every solve audits the prediction.
uint64_t predictedStateBound(const RegexFeatures &F);

} // namespace analysis
} // namespace sbd

#endif // SBD_ANALYSIS_REGEXANALYZER_H
