//===- core/CachedMatcher.h - Lazy bounded DFA over minterm ids (§8.5) ------===//
///
/// \file
/// A compiled matcher in the spirit of the Symbolic Regex Matcher (SRM,
/// Veanes et al., TACAS'19) the paper discusses in Section 8.5, upgraded to
/// the RE# recipe: the pattern's predicates are mintermized *once* into an
/// `AlphabetCompressor`, and each derivative state lazily materializes a
/// dense successor row indexed by minterm id. Stepping is then
///
///   next = Rows[state * numClasses + classOf(cp)]
///
/// — one bytemap lookup and one row load per character, no CharSet walk.
/// Soundness rests on the derivative-closure property (Theorem 7.1 flavor):
/// every guard reachable by repeated δ from the pattern is a Boolean
/// combination of the pattern's own predicates ΨR, so minterms of ΨR are
/// uniform for *all* guards the matcher will ever see and one probe of a
/// class representative decides the whole class.
///
/// The state cache is **bounded** (RE2-style): at most `Options.MaxStates`
/// derivative states are live at once. When the cap is hit, the
/// least-recently-touched half of the unpinned states is evicted, survivors
/// whose rows reference a victim are lazily re-expanded, and — if even
/// eviction cannot make room (cap smaller than one row's fan-out) — the
/// matcher falls back to direct derivative stepping for the rest of the
/// input, so memory stays within the cap on adversarial inputs while
/// results never change. Evictions and expansions are counted in the
/// `sbd::obs` registry (`dfa_states_built`, `dfa_evictions`).
///
/// States are still discovered on demand, so matching short inputs against a
/// huge regex never builds the full state space (the same laziness the
/// solver relies on).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CORE_CACHEDMATCHER_H
#define SBD_CORE_CACHEDMATCHER_H

#include "charset/AlphabetCompressor.h"
#include "core/Derivatives.h"

#include <string>
#include <vector>

namespace sbd {

/// Repeated-use matcher for one extended regex.
class CachedMatcher {
public:
  struct Options {
    /// Cap on simultaneously live derivative states. Memory for the
    /// transition structure is bounded by MaxStates * numClasses * 4 bytes
    /// plus one State record per slot.
    size_t MaxStates = 1024;
  };

  CachedMatcher(DerivativeEngine &Eng, Re Pattern)
      : CachedMatcher(Eng, Pattern, Options()) {}
  CachedMatcher(DerivativeEngine &Eng, Re Pattern, Options Opts);

  /// Does the pattern accept the code-point word?
  bool matches(const std::vector<uint32_t> &Word);
  /// Does the pattern accept the UTF-8 string? Decodes incrementally (no
  /// intermediate code-point buffer); ASCII bytes take a one-load fast path.
  bool matches(const std::string &Utf8);

  /// Number of derivative states live in the cache.
  size_t statesMaterialized() const { return States.size() - FreeSlots.size(); }
  /// Total cached transition-row entries (non-dead, over expanded states).
  size_t cachedArcs() const;
  /// States evicted by the bounded cache so far.
  size_t evictions() const { return Evicted; }
  /// Characters matched via the uncached derivative fallback (cap pressure).
  size_t fallbackSteps() const { return FallbackSteps; }

  /// The query-scoped minterm partition driving the dense rows.
  const AlphabetCompressor &compressor() const { return Compressor; }

  /// Re-derives every expanded row through the uncompressed δdnf path
  /// (`TrManager::apply` on each class representative — a different
  /// evaluation route than the arc enumeration that built the row) and
  /// returns the number of mismatching entries. Zero on a healthy cache.
  /// Always compiled (the negative tests need it in every build); the
  /// per-expansion hook that calls it is gated behind SBD_AUDIT.
  size_t auditRows();

  /// Test backdoor: overwrite one row entry of an expanded state, to prove
  /// auditRows() detects corruption. No-op if the slot is not expanded.
  void corruptRowForTest(size_t Slot, uint16_t Cls, uint32_t Value);

private:
  /// Successor sentinel: no transition (the dead sink).
  static constexpr uint32_t DeadState = 0xFFFFFFFFu;
  /// internState() result when the cache cannot make room (cap exhausted by
  /// pinned states): the caller must fall back to uncached stepping.
  static constexpr uint32_t NoSlot = 0xFFFFFFFEu;

  /// A cached derivative state. Slot-addressed; dead slots are recycled
  /// through FreeSlots.
  struct State {
    Re Regex{0};
    bool Accepting = false;
    bool Expanded = false;
    bool Live = false;
    uint64_t LastTouch = 0; ///< LRU clock stamp
  };

  void touch(uint32_t Slot) { States[Slot].LastTouch = ++Clock; }
  /// Finds or allocates the slot for \p R, evicting if needed. \p Pin0/Pin1
  /// are slots that must survive any eviction (the expanding state and the
  /// initial state); pass DeadState for unused pins.
  uint32_t internState(Re R, uint32_t Pin0, uint32_t Pin1);
  /// Evicts the least-recently-touched half of the unpinned live states.
  /// Returns false when nothing could be evicted (everything pinned).
  bool evict(uint32_t Pin0, uint32_t Pin1);
  /// Fills the slot's dense row. Returns false when the cache is too small
  /// to hold the row's targets (caller falls back; slot stays unexpanded).
  bool expand(uint32_t Slot);
  /// Next slot on minterm class \p Cls: DeadState for the sink, NoSlot when
  /// the row cannot be materialized under the cap.
  uint32_t step(uint32_t Slot, uint16_t Cls);
  /// Mismatch count for one slot's row (see auditRows).
  size_t auditRow(uint32_t Slot);
  /// SBD_AUDIT expansion hook: audits the fresh row, publishes violations.
  void auditRowHook(uint32_t Slot);

  /// One step of the shared match loop. Updates slot-or-regex mode state;
  /// returns false when the match is dead.
  bool feed(uint32_t &Slot, Re &Cur, uint32_t Cp);
  bool accepted(uint32_t Slot, Re Cur);

  DerivativeEngine &Engine;
  RegexManager &M;
  TrManager &T;
  AlphabetCompressor Compressor;
  size_t NumClasses;
  size_t MaxStates;

  std::vector<State> States;
  std::vector<uint32_t> FreeSlots;
  /// Flat row storage: Rows[Slot * NumClasses + Cls]. Rows of unexpanded
  /// slots hold stale data and must not be read.
  std::vector<uint32_t> Rows;
  FlatMap64 StateIndex; ///< Re.Id -> live slot
  uint32_t InitialState;
  uint64_t Clock = 0;
  /// Bumped on every eviction batch; expand() uses it to detect that a
  /// target it already interned was evicted mid-row and retries.
  uint64_t EvictEpoch = 0;
  size_t Evicted = 0;
  size_t FallbackSteps = 0;
};

} // namespace sbd

#endif // SBD_CORE_CACHEDMATCHER_H
