//===- tests/VerdictCacheTest.cpp - Cross-query verdict cache tests ----------===//
///
/// \file
/// Unit and integration tests for the canonical verdict cache (DESIGN.md
/// §15): key canonicality (print → reparse round-trip), bounded capacity
/// with least-recently-hit eviction, JSONL persistence, and — through the
/// portfolio — the untrusted-cache revalidation contract: a poisoned Sat
/// witness or a forged Unsat entry read from disk must surface as a hard
/// error, never a silent re-solve.
///
//===----------------------------------------------------------------------===//

#include "cache/VerdictCache.h"

#include "core/Derivatives.h"
#include "portfolio/Portfolio.h"
#include "re/RegexParser.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace sbd;
using namespace sbd::cache;

namespace {

class VerdictCacheTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};

  Re parse(const std::string &P) { return parseRegexOrDie(M, P); }

  std::string key(const std::string &P, const SolveOptions &Opts = {}) {
    return canonicalVerdictKey(M, parse(P), Opts);
  }
};

TEST_F(VerdictCacheTest, LookupMissThenInsertThenHit) {
  VerdictCache C(VerdictCache::Config{64});
  std::string K = key("ab*c");
  EXPECT_FALSE(C.lookup(K).has_value());
  C.insert(K, {true, {'a', 'c'}});
  auto Hit = C.lookup(K);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Hit->Sat);
  EXPECT_EQ(Hit->Witness, (std::vector<uint32_t>{'a', 'c'}));
  VerdictCacheCounters N = C.counters();
  EXPECT_EQ(N.Hits, 1u);
  EXPECT_EQ(N.Misses, 1u);
  EXPECT_EQ(N.Inserts, 1u);
  EXPECT_EQ(N.Size, 1u);
  EXPECT_DOUBLE_EQ(N.hitRate(), 0.5);
}

TEST_F(VerdictCacheTest, EmptyKeysAreRejected) {
  VerdictCache C;
  C.insert("", {false, {}});
  EXPECT_EQ(C.size(), 0u);
  EXPECT_FALSE(C.lookup("").has_value());
}

/// The key law behind cross-arena sharing: printing the hash-consed term
/// and reparsing it into a *fresh* arena must produce the identical key —
/// canonical prints, not arena pointers, are the cache identity.
TEST_F(VerdictCacheTest, KeyRoundTripsThroughPrintAndReparse) {
  const char *Patterns[] = {
      "ab*c",
      "(a|b)&~(c)",
      "~((ab)*)&[a-z]{2,5}",
      "(a|())(b|c)*&~(d?)",
  };
  for (const char *P : Patterns) {
    Re R = parse(P);
    SolveOptions Opts;
    Opts.MaxStates = 123;
    std::string K1 = canonicalVerdictKey(M, R, Opts);
    ASSERT_FALSE(K1.empty());

    RegexManager M2;
    Re R2 = parseRegexOrDie(M2, M.toString(R));
    std::string K2 = canonicalVerdictKey(M2, R2, Opts);
    EXPECT_EQ(K1, K2) << "key not canonical across arenas for " << P;
  }
}

TEST_F(VerdictCacheTest, KeyIncludesBudgetAndStrategyButNotDeadline) {
  Re R = parse("a*b");
  SolveOptions A;
  SolveOptions B;
  B.TimeoutMs = 5000; // deadline must NOT split the key space
  EXPECT_EQ(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, B));

  SolveOptions C;
  C.MaxStates = 7; // a tighter state budget can change the verdict
  EXPECT_NE(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, C));

  SolveOptions D;
  D.Strategy = SearchStrategy::Dfs; // DFS finds different witnesses
  EXPECT_NE(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, D));
}

TEST_F(VerdictCacheTest, OversizedKeysAreSkipped) {
  Re R = parse("(abcdefghij){3}");
  EXPECT_TRUE(canonicalVerdictKey(M, R, SolveOptions{}, 8).empty());
  EXPECT_FALSE(canonicalVerdictKey(M, R, SolveOptions{}).empty());
}

TEST_F(VerdictCacheTest, KeyPrintStopsAtTheCap) {
  // (R & b+) | (~R & ck), 40 deep: a linear DAG whose print doubles per
  // level. The key print must stop at the cap, not render 2^40 copies.
  Re R = parse("a");
  for (int K = 0; K != 40; ++K)
    R = M.union_(M.inter(R, parse("b+")),
                 M.inter(M.complement(R), parse("c" + std::to_string(K))));
  EXPECT_TRUE(canonicalVerdictKey(M, R, SolveOptions{}).empty());
  std::string Prefix = M.toString(R, 100);
  EXPECT_GT(Prefix.size(), 100u);
  EXPECT_LT(Prefix.size(), 200u);
  // Under the cap the print is the full one.
  Re Small = parse("(abc|d)*&~(e)");
  EXPECT_EQ(M.toString(Small, 1000), M.toString(Small));
}

TEST_F(VerdictCacheTest, InsertOverwritesExistingEntry) {
  VerdictCache C;
  std::string K = key("a|b");
  C.insert(K, {true, {'a'}});
  C.insert(K, {true, {'b'}});
  EXPECT_EQ(C.size(), 1u);
  auto Hit = C.lookup(K);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Witness, (std::vector<uint32_t>{'b'}));
}

/// Capacity is bounded and overflow evicts the least-recently-hit entry of
/// the full shard: a just-probed entry must survive an insert storm that
/// evicts its never-probed siblings.
TEST_F(VerdictCacheTest, EvictionIsBoundedAndLeastRecentlyHit) {
  // Capacity 64 with 16 shards → four entries per shard: small enough to
  // force evictions quickly, large enough that recency can protect an
  // entry from its shard-mates.
  VerdictCache C(VerdictCache::Config{64});
  std::vector<std::string> Keys;
  for (int I = 0; I < 512; ++I)
    Keys.push_back("k" + std::to_string(I) + "|synthetic");
  for (const auto &K : Keys)
    C.insert(K, {false, {}});
  EXPECT_LE(C.size(), 64u);
  VerdictCacheCounters N = C.counters();
  EXPECT_EQ(N.Inserts, Keys.size());
  EXPECT_GE(N.Evictions, Keys.size() - 64);

  // Recency: hit one survivor, then hammer its shard with fresh keys. The
  // probed entry must outlive entries that were never hit.
  std::string Survivor;
  for (const auto &K : Keys)
    if (C.lookup(K).has_value()) {
      Survivor = K;
      break;
    }
  ASSERT_FALSE(Survivor.empty());
  size_t Evicted = 0;
  for (int I = 0; I < 512 && Evicted < 64; ++I) {
    std::string Fresh = "fresh" + std::to_string(I);
    C.insert(Fresh, {false, {}});
    if (C.counters().Evictions > N.Evictions + Evicted)
      ++Evicted;
    // Keep the survivor's recency ahead of the insert ticks.
    ASSERT_TRUE(C.lookup(Survivor).has_value())
        << "least-recently-hit eviction removed the most-recently-hit entry";
  }
  EXPECT_GT(Evicted, 0u);
}

namespace {

/// The eviction law written the naive way: per shard a dense vector whose
/// entries carry the tick of their last hit; a full shard evicts the least
/// tick by a linear scan, and every removal is a swap-and-pop. The cache's
/// recency list must pick the same victims and leave the same dense order.
class RecencyModel {
public:
  explicit RecencyModel(size_t Capacity)
      : ShardCap((Capacity + VerdictCache::NumShards - 1) /
                 VerdictCache::NumShards) {}

  std::optional<CachedVerdict> lookup(const std::string &Key) {
    auto [Shard, Idx] = find(Key);
    if (Idx == Missing) {
      ++Counters.Misses;
      return std::nullopt;
    }
    ++Counters.Hits;
    Shard->at(Idx).LastHit = ++Tick;
    return Shard->at(Idx).Verdict;
  }

  void insert(const std::string &Key, const CachedVerdict &V) {
    auto [Shard, Idx] = find(Key);
    if (Idx != Missing) {
      Shard->at(Idx).Verdict = V;
      Shard->at(Idx).LastHit = ++Tick;
      return;
    }
    if (Shard->size() >= ShardCap) {
      size_t Victim = 0;
      for (size_t I = 1; I != Shard->size(); ++I)
        if ((*Shard)[I].LastHit < (*Shard)[Victim].LastHit)
          Victim = I;
      remove(*Shard, Victim);
      ++Counters.Evictions;
    }
    Shard->push_back({Key, V, ++Tick});
    ++Counters.Inserts;
  }

  void noteRevalidationFailure(const std::string &Key) {
    ++Counters.RevalidationFailures;
    auto [Shard, Idx] = find(Key);
    if (Idx != Missing)
      remove(*Shard, Idx);
  }

  void clear() {
    for (auto &Shard : Shards)
      Shard.clear();
  }

  VerdictCacheCounters counters() const {
    VerdictCacheCounters C = Counters;
    C.Size = 0;
    for (const auto &Shard : Shards)
      C.Size += Shard.size();
    return C;
  }

  /// The lines save() must write, in its order (shard by shard, dense).
  std::vector<std::string> saveLines() const {
    std::vector<std::string> Lines;
    for (const auto &Shard : Shards)
      for (const Item &It : Shard) {
        std::string L = "{\"key\": \"" + It.Key + "\", \"status\": \"";
        L += It.Verdict.Sat ? "sat\"" : "unsat\"";
        if (It.Verdict.Sat) {
          L += ", \"witness\": [";
          for (size_t I = 0; I != It.Verdict.Witness.size(); ++I)
            L += (I ? ", " : "") + std::to_string(It.Verdict.Witness[I]);
          L += ']';
        }
        Lines.push_back(L + "}");
      }
    return Lines;
  }

private:
  struct Item {
    std::string Key;
    CachedVerdict Verdict;
    uint64_t LastHit;
  };
  static constexpr size_t Missing = ~size_t(0);

  std::pair<std::vector<Item> *, size_t> find(const std::string &Key) {
    auto &Shard = Shards[VerdictCache::shardOfForTest(Key)];
    for (size_t I = 0; I != Shard.size(); ++I)
      if (Shard[I].Key == Key)
        return {&Shard, I};
    return {&Shard, Missing};
  }

  static void remove(std::vector<Item> &Shard, size_t Idx) {
    Shard[Idx] = std::move(Shard.back());
    Shard.pop_back();
  }

  size_t ShardCap;
  uint64_t Tick = 0;
  VerdictCacheCounters Counters;
  std::vector<std::vector<Item>> Shards{VerdictCache::NumShards};
};

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

void expectSameCounters(const VerdictCacheCounters &Got,
                        const VerdictCacheCounters &Want) {
  EXPECT_EQ(Got.Hits, Want.Hits);
  EXPECT_EQ(Got.Misses, Want.Misses);
  EXPECT_EQ(Got.Inserts, Want.Inserts);
  EXPECT_EQ(Got.Evictions, Want.Evictions);
  EXPECT_EQ(Got.RevalidationFailures, Want.RevalidationFailures);
  EXPECT_EQ(Got.Size, Want.Size);
}

} // namespace

/// Seeded random sequences of insert, overwrite, lookup, revalidation
/// failure and clear, at capacities from 1 to 200, against RecencyModel:
/// every lookup outcome and the counters agree step by step, and save()
/// writes the model's dense order. Small shards in 8+ slots make probe
/// chains collide, so removals exercise backward-shift deletion.
TEST_F(VerdictCacheTest, EvictionMatchesAReferenceRecencyModel) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_model.jsonl";
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::mt19937_64 Rng(Seed);
    size_t Capacity = Seed == 1 ? 1 : Seed == 2 ? 200 : 1 + Rng() % 200;
    SCOPED_TRACE("seed " + std::to_string(Seed) + ", capacity " +
                 std::to_string(Capacity));
    VerdictCache C(VerdictCache::Config{Capacity});
    RecencyModel Model(Capacity);
    // A key pool about twice the capacity keeps shards full while still
    // revisiting keys, so hits, overwrites and evictions all happen.
    size_t Pool = 2 * Capacity + 8;
    auto checkSave = [&] {
      ASSERT_TRUE(C.save(Path));
      EXPECT_EQ(readLines(Path), Model.saveLines());
      std::remove(Path.c_str());
    };
    for (int Step = 0; Step != 3000; ++Step) {
      std::string Key = "k" + std::to_string(Rng() % Pool);
      unsigned Op = Rng() % 100;
      if (Op < 45) {
        CachedVerdict V;
        V.Sat = Rng() % 2;
        if (V.Sat)
          V.Witness = {static_cast<uint32_t>(Step),
                       static_cast<uint32_t>(Rng() % 256)};
        C.insert(Key, V);
        Model.insert(Key, V);
      } else if (Op < 90) {
        auto Got = C.lookup(Key);
        auto Want = Model.lookup(Key);
        ASSERT_EQ(Got.has_value(), Want.has_value()) << "step " << Step;
        if (Got) {
          EXPECT_EQ(Got->Sat, Want->Sat);
          EXPECT_EQ(Got->Witness, Want->Witness);
        }
      } else if (Op < 99) {
        C.noteRevalidationFailure(Key);
        Model.noteRevalidationFailure(Key);
      } else {
        checkSave();
        C.clear();
        Model.clear();
      }
      expectSameCounters(C.counters(), Model.counters());
      if (::testing::Test::HasFailure())
        FAIL() << "diverged at step " << Step;
    }
    checkSave();
  }

  // Full size: every shard of a 65,536-entry cache fills to 4,096 and then
  // evicts once per further insert.
  VerdictCache Big;
  for (int I = 0; I != 200000; ++I)
    Big.insert("key" + std::to_string(I), {false, {}});
  EXPECT_EQ(Big.size(), 65536u);
  EXPECT_EQ(Big.counters().Evictions, 134464u);
  EXPECT_TRUE(Big.lookup("key199999").has_value());
}

TEST_F(VerdictCacheTest, ClearDropsEntriesButKeepsCounters) {
  VerdictCache C;
  C.insert(key("a"), {true, {'a'}});
  C.insert(key("b"), {true, {'b'}});
  ASSERT_EQ(C.size(), 2u);
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.counters().Inserts, 2u);
  EXPECT_FALSE(C.lookup(key("a")).has_value());
}

TEST_F(VerdictCacheTest, JsonlSaveLoadRoundTrip) {
  std::string Path =
      ::testing::TempDir() + "/verdict_cache_roundtrip.jsonl";
  VerdictCache C;
  // Keys with JSON-hostile characters: quotes, backslashes, newlines.
  std::string Tricky = "pat\"quote\\back\nline\ttab";
  C.insert(key("ab*c"), {true, {'a', 'c'}});
  C.insert(key("~(a)&b"), {false, {}});
  C.insert(Tricky, {true, {0x10FFFF, 0, 'x'}});
  ASSERT_TRUE(C.save(Path));

  VerdictCache D;
  EXPECT_EQ(D.load(Path), 3);
  EXPECT_EQ(D.size(), 3u);
  auto Sat = D.lookup(key("ab*c"));
  ASSERT_TRUE(Sat.has_value());
  EXPECT_TRUE(Sat->Sat);
  EXPECT_EQ(Sat->Witness, (std::vector<uint32_t>{'a', 'c'}));
  auto Unsat = D.lookup(key("~(a)&b"));
  ASSERT_TRUE(Unsat.has_value());
  EXPECT_FALSE(Unsat->Sat);
  auto T = D.lookup(Tricky);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Witness, (std::vector<uint32_t>{0x10FFFF, 0, 'x'}));
  std::remove(Path.c_str());
}

TEST_F(VerdictCacheTest, LoadSkipsMalformedLinesAndMissingFileIsAnError) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_malformed.jsonl";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"key\": \"good\", \"status\": \"unsat\"}\n"
        << "not json at all\n"
        << "{\"key\": \"half\n"
        << "{\"key\": \"good2\", \"status\": \"sat\", \"witness\": [97, 98]}\n"
        // save() escapes only control bytes; a wider code point must not
        // be truncated into another key ("\u0161" would become "a").
        << "{\"key\": \"\\u0161\", \"status\": \"unsat\"}\n";
  }
  VerdictCache C;
  EXPECT_EQ(C.load(Path), 2);
  EXPECT_FALSE(C.lookup("a").has_value());
  EXPECT_TRUE(C.lookup("good").has_value());
  ASSERT_TRUE(C.lookup("good2").has_value());
  EXPECT_EQ(C.lookup("good2")->Witness, (std::vector<uint32_t>{97, 98}));
  std::remove(Path.c_str());

  EXPECT_EQ(C.load(::testing::TempDir() + "/definitely_missing.jsonl"), -1);
}

/// Portfolio integration: the second identical query is answered from the
/// cache (engine tag VerdictCache), with the identical verdict and witness.
TEST_F(VerdictCacheTest, PortfolioServesWarmHitWithIdenticalVerdict) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("(ab|cd)*ef&~(x)");

  SolveResult Cold = P.checkSat(R);
  ASSERT_EQ(Cold.Status, SolveStatus::Sat);
  EXPECT_NE(Cold.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(C.counters().Inserts, 1u);

  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Status, SolveStatus::Sat);
  EXPECT_EQ(Warm.Witness, Cold.Witness);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(C.counters().Hits, 1u);
}

TEST_F(VerdictCacheTest, UnsatVerdictsAreCachedToo) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("a&b"); // distinct singletons: provably empty
  ASSERT_EQ(P.checkSat(R).Status, SolveStatus::Unsat);
  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Status, SolveStatus::Unsat);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
}

/// The negative test of the trust model: hand-corrupt the cached witness
/// and prove the revalidation layer catches it as a HARD error — verdict
/// Unknown with RevalidationFailed, audit counters bumped, poisoned
/// entry dropped — and never silently re-solves.
TEST_F(VerdictCacheTest, CorruptedWitnessIsAHardErrorNeverASilentResolve) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("ab*c");
  ASSERT_EQ(P.checkSat(R).Status, SolveStatus::Sat);

  std::string K = canonicalVerdictKey(M, R, SolveOptions{});
  ASSERT_TRUE(C.corruptWitnessForTest(K));

  uint64_t AuditBefore = obs::MetricsRegistry::global().snapshot().get(
      obs::Counter::AuditViolations);
  SolveResult Hit = P.checkSat(R);
  EXPECT_EQ(Hit.Status, SolveStatus::Unknown);
  EXPECT_EQ(Hit.Stop, StopReason::RevalidationFailed);
  EXPECT_NE(Hit.Note.find("revalidation"), std::string::npos);
  EXPECT_EQ(C.counters().RevalidationFailures, 1u);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().get(
                obs::Counter::AuditViolations),
            AuditBefore + 1);

  // The poisoned entry is gone: the next query re-solves cold and repairs
  // the cache with a genuine witness.
  SolveResult Repaired = P.checkSat(R);
  EXPECT_EQ(Repaired.Status, SolveStatus::Sat);
  EXPECT_NE(Repaired.Stats.Engine, SolveEngine::VerdictCache);
  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(Warm.Witness, Repaired.Witness);
}

/// An Unsat entry read from disk had no solve in this process. A forged one
/// (its language has the witness "ab") must surface on its first hit as the
/// same hard error as a corrupted witness, never as `unsat`.
TEST_F(VerdictCacheTest, ForgedLoadedUnsatIsAHardErrorNeverAnUnsat) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_forged.jsonl";
  Re R = parse("(ab)+");
  {
    VerdictCache Forger;
    Forger.insert(canonicalVerdictKey(M, R, SolveOptions{}), {false, {}});
    ASSERT_TRUE(Forger.save(Path));
  }
  VerdictCache C;
  ASSERT_EQ(C.load(Path), 1);
  std::remove(Path.c_str());
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);

  uint64_t AuditBefore = obs::MetricsRegistry::global().snapshot().get(
      obs::Counter::AuditViolations);
  SolveResult Hit = P.checkSat(R);
  EXPECT_EQ(Hit.Status, SolveStatus::Unknown);
  EXPECT_EQ(Hit.Stop, StopReason::RevalidationFailed);
  EXPECT_NE(Hit.Note.find("revalidation"), std::string::npos);
  EXPECT_EQ(C.counters().RevalidationFailures, 1u);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().get(
                obs::Counter::AuditViolations),
            AuditBefore + 1);

  // The forged entry is gone: the next query solves and caches the truth.
  SolveResult Repaired = P.checkSat(R);
  EXPECT_EQ(Repaired.Status, SolveStatus::Sat);
  EXPECT_NE(Repaired.Stats.Engine, SolveEngine::VerdictCache);
}

/// A genuine loaded Unsat entry is re-proved on its first hit only; after
/// that it is served from the cache like an in-process entry.
TEST_F(VerdictCacheTest, LoadedUnsatIsSolvedOnItsFirstHitOnly) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_unsat.jsonl";
  Re R = parse("(ab)+&(ba)+");
  {
    VerdictCache Cold;
    portfolio::PortfolioSolver P(Solver);
    P.setVerdictCache(&Cold);
    ASSERT_EQ(P.checkSat(R).Status, SolveStatus::Unsat);
    ASSERT_TRUE(Cold.save(Path));
  }
  VerdictCache C;
  ASSERT_EQ(C.load(Path), 1);
  std::remove(Path.c_str());
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);

  SolveResult First = P.checkSat(R);
  EXPECT_EQ(First.Status, SolveStatus::Unsat);
  EXPECT_NE(First.Stats.Engine, SolveEngine::VerdictCache);
  SolveResult Second = P.checkSat(R);
  EXPECT_EQ(Second.Status, SolveStatus::Unsat);
  EXPECT_EQ(Second.Stats.Engine, SolveEngine::VerdictCache);
  VerdictCacheCounters N = C.counters();
  EXPECT_EQ(N.Hits, 2u);
  EXPECT_EQ(N.Inserts, 1u); // the load's; the re-proof overwrote in place
  EXPECT_EQ(N.RevalidationFailures, 0u);
}

/// Cache verdicts must be identical to direct solves — the acceptance
/// criterion "zero verdict differences cached-vs-direct" in miniature.
TEST_F(VerdictCacheTest, CachedVerdictsMatchDirectSolves) {
  const char *Patterns[] = {
      "ab*c",       "a&b",           "~(a*)&a{3}",  "(a|b)*&~(.*bb.*)",
      "[a-c]{2,4}", "~(())&(x|y)?",  "(ab)*&(ba)*", "a?b?c?&~(abc)",
  };
  VerdictCache C;
  portfolio::PortfolioSolver Cached(Solver);
  Cached.setVerdictCache(&C);
  portfolio::PortfolioSolver Direct(Solver);
  for (const char *P : Patterns) {
    Re R = parse(P);
    SolveResult D = Direct.checkSat(R);
    SolveResult Cold = Cached.checkSat(R);
    SolveResult Warm = Cached.checkSat(R);
    EXPECT_EQ(Cold.Status, D.Status) << P;
    EXPECT_EQ(Warm.Status, D.Status) << P;
    EXPECT_EQ(Warm.Witness, Cold.Witness) << P;
    if (Cold.Status == SolveStatus::Sat || Cold.Status == SolveStatus::Unsat) {
      EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache) << P;
    }
  }
}

} // namespace
