//===- cache/VerdictCache.cpp - Cross-query canonical verdict cache ---------===//

#include "cache/VerdictCache.h"

#include "support/Metrics.h"

#include <cstdio>
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

/// JSON string escape for the canonical key (the print may contain quotes
/// and backslashes from charset literals).
void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
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
      // Keys only escape control bytes, so V < 0x80 always; emit as-is.
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

void VerdictCache::reindexLocked(Shard &S) {
  std::fill(S.Slots.begin(), S.Slots.end(), EmptyIdx);
  size_t Mask = SlotCount - 1;
  for (uint32_t I = 0; I != S.Entries.size(); ++I) {
    size_t Idx = static_cast<size_t>(S.Entries[I].Hash) & Mask;
    while (S.Slots[Idx] != EmptyIdx)
      Idx = (Idx + 1) & Mask;
    S.Slots[Idx] = I;
  }
}

void VerdictCache::removeLocked(Shard &S, uint32_t Idx) {
  // Swap-and-pop the dense vector, then rebuild the probe table: removal
  // only happens on the eviction/poison paths, which already pay a solve
  // or a hard error, so the O(shard) reindex is noise.
  S.Entries[Idx] = std::move(S.Entries.back());
  S.Entries.pop_back();
  reindexLocked(S);
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
  S.Entries[Idx].LastHit = ++S.Tick;
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
    S.Entries[Idx].LastHit = ++S.Tick;
    return;
  }
  if (S.Entries.size() >= ShardCapacity) {
    // Least-recently-hit eviction: linear scan of the dense vector. The
    // shard is bounded and this is the miss path (the caller just paid a
    // full solve), so the scan is immaterial.
    uint32_t Victim = 0;
    for (uint32_t I = 1; I != S.Entries.size(); ++I)
      if (S.Entries[I].LastHit < S.Entries[Victim].LastHit)
        Victim = I;
    removeLocked(S, Victim);
    ++S.Evictions;
    SBD_OBS_INC(VerdictCacheEvictions);
  }
  Entry E;
  E.Hash = Hash;
  E.Key = Key;
  E.Verdict = std::move(V);
  E.LastHit = ++S.Tick;
  S.Entries.push_back(std::move(E));
  size_t Mask = SlotCount - 1;
  size_t Slot = static_cast<size_t>(Hash) & Mask;
  while (S.Slots[Slot] != EmptyIdx)
    Slot = (Slot + 1) & Mask;
  S.Slots[Slot] = static_cast<uint32_t>(S.Entries.size() - 1);
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
