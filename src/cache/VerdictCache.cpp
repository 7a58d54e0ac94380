//===- cache/VerdictCache.cpp - Cross-query canonical verdict cache ---------===//

#include "cache/VerdictCache.h"

#include "support/Metrics.h"
#include "support/Unicode.h"

#include <fstream>

using namespace sbd;
using namespace sbd::cache;

namespace {

/// FNV-1a over the key bytes followed by a strong finalizer, so the high
/// bits used for shard selection are as well mixed as the low bits used
/// for slot probing.
uint64_t hashKey(const std::string &Key) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Key) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  H += 0x9e3779b97f4a7c15ULL;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
  return H ^ (H >> 31);
}

size_t nextPow2(size_t N) {
  size_t P = 8;
  while (P < N)
    P <<= 1;
  return P;
}

/// Decodes the escapes appendJsonString produces. Returns false on a
/// malformed literal.
bool parseJsonString(const std::string &Line, size_t &Pos, std::string &Out) {
  if (Pos >= Line.size() || Line[Pos] != '"')
    return false;
  ++Pos;
  Out.clear();
  while (Pos < Line.size()) {
    char C = Line[Pos++];
    if (C == '"')
      return true;
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (Pos >= Line.size())
      return false;
    char E = Line[Pos++];
    switch (E) {
    case '"':
    case '\\':
    case '/':
      Out += E;
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'u': {
      if (Pos + 4 > Line.size())
        return false;
      unsigned V = 0;
      for (int I = 0; I != 4; ++I) {
        char H = Line[Pos++];
        V <<= 4;
        if (H >= '0' && H <= '9')
          V |= static_cast<unsigned>(H - '0');
        else if (H >= 'a' && H <= 'f')
          V |= static_cast<unsigned>(H - 'a' + 10);
        else if (H >= 'A' && H <= 'F')
          V |= static_cast<unsigned>(H - 'A' + 10);
        else
          return false;
      }
      // save() escapes only control bytes. A wider code point would not
      // fit one key byte, and truncating it would alias distinct keys.
      if (V >= 0x80)
        return false;
      Out += static_cast<char>(V);
      break;
    }
    default:
      return false;
    }
  }
  return false;
}

/// Skips spaces, then requires and consumes \p Lit.
bool expect(const std::string &Line, size_t &Pos, const char *Lit) {
  while (Pos < Line.size() && Line[Pos] == ' ')
    ++Pos;
  for (const char *P = Lit; *P; ++P, ++Pos)
    if (Pos >= Line.size() || Line[Pos] != *P)
      return false;
  return true;
}

bool parseNumber(const std::string &Line, size_t &Pos, uint64_t &Out) {
  while (Pos < Line.size() && Line[Pos] == ' ')
    ++Pos;
  if (Pos >= Line.size() || Line[Pos] < '0' || Line[Pos] > '9')
    return false;
  Out = 0;
  while (Pos < Line.size() && Line[Pos] >= '0' && Line[Pos] <= '9')
    Out = Out * 10 + static_cast<uint64_t>(Line[Pos++] - '0');
  return true;
}

} // namespace

std::string cache::canonicalVerdictKey(const RegexManager &M, Re R,
                                       const SolveOptions &Opts,
                                       size_t MaxKeyBytes) {
  std::string Key = M.toString(R, MaxKeyBytes);
  if (Key.size() > MaxKeyBytes)
    return std::string();
  Key += "\n|max_states=";
  Key += std::to_string(Opts.MaxStates);
  Key += "|strategy=";
  Key += Opts.Strategy == SearchStrategy::Dfs ? "dfs" : "bfs";
  return Key;
}

VerdictCache::VerdictCache(Config C) {
  size_t Cap = C.Capacity ? C.Capacity : 1;
  ShardCapacity = (Cap + NumShards - 1) / NumShards;
  if (ShardCapacity == 0)
    ShardCapacity = 1;
  // Fixed-size probe tables at <= 0.5 load when full: no rehash ever.
  SlotCount = nextPow2(ShardCapacity * 2);
  for (Shard &S : Shards) {
    S.Slots.assign(SlotCount, EmptyIdx);
    S.Entries.reserve(ShardCapacity);
  }
}

uint32_t VerdictCache::findLocked(const Shard &S, uint64_t Hash,
                                  const std::string &Key) const {
  size_t Mask = SlotCount - 1;
  size_t Idx = static_cast<size_t>(Hash) & Mask;
  while (S.Slots[Idx] != EmptyIdx) {
    const Entry &E = S.Entries[S.Slots[Idx]];
    if (E.Hash == Hash && E.Key == Key)
      return S.Slots[Idx];
    Idx = (Idx + 1) & Mask;
  }
  return EmptyIdx;
}

size_t VerdictCache::slotOfLocked(const Shard &S, uint32_t Idx) const {
  size_t Mask = SlotCount - 1;
  size_t Slot = static_cast<size_t>(S.Entries[Idx].Hash) & Mask;
  while (S.Slots[Slot] != Idx)
    Slot = (Slot + 1) & Mask;
  return Slot;
}

void VerdictCache::unlinkLocked(Shard &S, uint32_t Idx) {
  Entry &E = S.Entries[Idx];
  (E.Prev == EmptyIdx ? S.Lru : S.Entries[E.Prev].Next) = E.Next;
  (E.Next == EmptyIdx ? S.Mru : S.Entries[E.Next].Prev) = E.Prev;
}

void VerdictCache::pushMruLocked(Shard &S, uint32_t Idx) {
  Entry &E = S.Entries[Idx];
  E.Prev = S.Mru;
  E.Next = EmptyIdx;
  (S.Mru == EmptyIdx ? S.Lru : S.Entries[S.Mru].Next) = Idx;
  S.Mru = Idx;
}

void VerdictCache::removeLocked(Shard &S, uint32_t Idx) {
  // Backward-shift deletion: walk the probe chain after the freed slot and
  // pull back every entry whose home slot does not lie cyclically in
  // (Hole, Cur], so each remaining key stays reachable from its home.
  size_t Mask = SlotCount - 1;
  size_t Hole = slotOfLocked(S, Idx);
  for (size_t Cur = (Hole + 1) & Mask; S.Slots[Cur] != EmptyIdx;
       Cur = (Cur + 1) & Mask) {
    size_t Home = static_cast<size_t>(S.Entries[S.Slots[Cur]].Hash) & Mask;
    if (((Cur - Home) & Mask) >= ((Cur - Hole) & Mask)) {
      S.Slots[Hole] = S.Slots[Cur];
      Hole = Cur;
    }
  }
  S.Slots[Hole] = EmptyIdx;
  unlinkLocked(S, Idx);

  // Swap-and-pop the dense vector (the order save() writes), then re-point
  // the moved entry's slot and recency neighbours at its new index.
  uint32_t Last = static_cast<uint32_t>(S.Entries.size() - 1);
  if (Idx != Last) {
    S.Slots[slotOfLocked(S, Last)] = Idx;
    S.Entries[Idx] = std::move(S.Entries[Last]);
    Entry &E = S.Entries[Idx];
    (E.Prev == EmptyIdx ? S.Lru : S.Entries[E.Prev].Next) = Idx;
    (E.Next == EmptyIdx ? S.Mru : S.Entries[E.Next].Prev) = Idx;
  }
  S.Entries.pop_back();
}

std::optional<CachedVerdict> VerdictCache::lookup(const std::string &Key) {
  if (Key.empty())
    return std::nullopt;
  uint64_t Hash = hashKey(Key);
  Shard &S = shardFor(Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  uint32_t Idx = findLocked(S, Hash, Key);
  if (Idx == EmptyIdx) {
    ++S.Misses;
    SBD_OBS_INC(VerdictCacheMisses);
    return std::nullopt;
  }
  ++S.Hits;
  SBD_OBS_INC(VerdictCacheHits);
  unlinkLocked(S, Idx);
  pushMruLocked(S, Idx);
  return S.Entries[Idx].Verdict;
}

void VerdictCache::insert(const std::string &Key, CachedVerdict V) {
  if (Key.empty())
    return;
  uint64_t Hash = hashKey(Key);
  Shard &S = shardFor(Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  uint32_t Idx = findLocked(S, Hash, Key);
  if (Idx != EmptyIdx) {
    S.Entries[Idx].Verdict = std::move(V);
    unlinkLocked(S, Idx);
    pushMruLocked(S, Idx);
    return;
  }
  if (S.Entries.size() >= ShardCapacity) {
    // The victim is the recency list's far end, and removal is O(probe
    // chain). A scan for the oldest hit plus a probe-table rebuild measured
    // 16-17 us per evicting insert at 4,096 entries a shard, against
    // ~0.1 us for an insert that evicts nothing: ~1.5 s of the ~5 s
    // smt_session pass at --seconds 15, which evicts 93,333 times.
    removeLocked(S, S.Lru);
    ++S.Evictions;
    SBD_OBS_INC(VerdictCacheEvictions);
  }
  Entry E;
  E.Hash = Hash;
  E.Key = Key;
  E.Verdict = std::move(V);
  S.Entries.push_back(std::move(E));
  uint32_t NewIdx = static_cast<uint32_t>(S.Entries.size() - 1);
  pushMruLocked(S, NewIdx);
  size_t Mask = SlotCount - 1;
  size_t Slot = static_cast<size_t>(Hash) & Mask;
  while (S.Slots[Slot] != EmptyIdx)
    Slot = (Slot + 1) & Mask;
  S.Slots[Slot] = NewIdx;
  ++S.Inserts;
  SBD_OBS_INC(VerdictCacheInserts);
}

void VerdictCache::noteRevalidationFailure(const std::string &Key) {
  uint64_t Hash = hashKey(Key);
  Shard &S = shardFor(Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  ++S.RevalFailures;
  SBD_OBS_INC(VerdictCacheRevalidationFailures);
  // Surfaced through the audit layer's violation counter as well: a stale
  // witness means some invariant the cache rests on broke upstream.
  SBD_OBS_INC(AuditViolations);
  uint32_t Idx = findLocked(S, Hash, Key);
  if (Idx != EmptyIdx)
    removeLocked(S, Idx);
}

void VerdictCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Entries.clear();
    std::fill(S.Slots.begin(), S.Slots.end(), EmptyIdx);
    S.Lru = S.Mru = EmptyIdx;
  }
}

size_t VerdictCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Entries.size();
  }
  return N;
}

VerdictCacheCounters VerdictCache::counters() const {
  VerdictCacheCounters C;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    C.Hits += S.Hits;
    C.Misses += S.Misses;
    C.Inserts += S.Inserts;
    C.Evictions += S.Evictions;
    C.RevalidationFailures += S.RevalFailures;
    C.Size += S.Entries.size();
  }
  return C;
}

bool VerdictCache::save(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  std::string Line;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const Entry &E : S.Entries) {
      Line.clear();
      Line += "{\"key\": ";
      appendJsonString(Line, E.Key);
      Line += ", \"status\": \"";
      Line += E.Verdict.Sat ? "sat" : "unsat";
      Line += '"';
      if (E.Verdict.Sat) {
        Line += ", \"witness\": [";
        for (size_t I = 0; I != E.Verdict.Witness.size(); ++I) {
          if (I)
            Line += ", ";
          Line += std::to_string(E.Verdict.Witness[I]);
        }
        Line += ']';
      }
      Line += "}\n";
      Out << Line;
    }
  }
  return static_cast<bool>(Out);
}

long VerdictCache::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return -1;
  long Loaded = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Pos = 0;
    std::string Key, Status;
    if (!expect(Line, Pos, "{") || !expect(Line, Pos, "\"key\":"))
      continue;
    while (Pos < Line.size() && Line[Pos] == ' ')
      ++Pos;
    if (!parseJsonString(Line, Pos, Key))
      continue;
    if (!expect(Line, Pos, ",") || !expect(Line, Pos, "\"status\":"))
      continue;
    while (Pos < Line.size() && Line[Pos] == ' ')
      ++Pos;
    if (!parseJsonString(Line, Pos, Status))
      continue;
    CachedVerdict V;
    V.Proven = false;
    if (Status == "sat")
      V.Sat = true;
    else if (Status != "unsat")
      continue;
    if (V.Sat) {
      if (!expect(Line, Pos, ",") || !expect(Line, Pos, "\"witness\":") ||
          !expect(Line, Pos, "["))
        continue;
      bool Ok = true;
      while (true) {
        while (Pos < Line.size() && Line[Pos] == ' ')
          ++Pos;
        if (Pos < Line.size() && Line[Pos] == ']') {
          ++Pos;
          break;
        }
        uint64_t N = 0;
        if (!parseNumber(Line, Pos, N)) {
          Ok = false;
          break;
        }
        V.Witness.push_back(static_cast<uint32_t>(N));
        while (Pos < Line.size() && Line[Pos] == ' ')
          ++Pos;
        if (Pos < Line.size() && Line[Pos] == ',')
          ++Pos;
      }
      if (!Ok)
        continue;
    }
    insert(Key, std::move(V));
    ++Loaded;
  }
  return Loaded;
}

bool VerdictCache::corruptWitnessForTest(const std::string &Key) {
  uint64_t Hash = hashKey(Key);
  Shard &S = shardFor(Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  uint32_t Idx = findLocked(S, Hash, Key);
  if (Idx == EmptyIdx || !S.Entries[Idx].Verdict.Sat)
    return false;
  // A code point no regex over the supported alphabet can require.
  S.Entries[Idx].Verdict.Witness.push_back(0x10FFFF + 7);
  return true;
}

size_t VerdictCache::shardOfForTest(const std::string &Key) {
  return shardIndex(hashKey(Key));
}
