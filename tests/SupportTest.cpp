//===- tests/SupportTest.cpp - Support utility tests -------------------------===//

#include "support/Hashing.h"
#include "support/InternTable.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

#include <set>

using namespace sbd;

namespace {

TEST(Unicode, Utf8RoundTripAscii) {
  std::vector<uint32_t> Word = {'h', 'e', 'l', 'l', 'o'};
  EXPECT_EQ(toUtf8(Word), "hello");
  EXPECT_EQ(fromUtf8("hello"), Word);
}

TEST(Unicode, Utf8RoundTripAllWidths) {
  // One char per encoding width: 1, 2, 3, 4 bytes.
  std::vector<uint32_t> Word = {0x41, 0x3B1, 0x4E2D, 0x1F600};
  std::string Bytes = toUtf8(Word);
  EXPECT_EQ(Bytes.size(), 1u + 2 + 3 + 4);
  EXPECT_EQ(fromUtf8(Bytes), Word);
}

TEST(Unicode, Utf8RoundTripExhaustiveBoundaries) {
  // Boundary code points of each width class.
  for (uint32_t Cp : {0u, 0x7Fu, 0x80u, 0x7FFu, 0x800u, 0xFFFFu, 0x10000u,
                      0x10FFFFu}) {
    std::string Bytes;
    appendUtf8(Cp, Bytes);
    std::vector<uint32_t> Back = fromUtf8(Bytes);
    ASSERT_EQ(Back.size(), 1u) << Cp;
    EXPECT_EQ(Back[0], Cp);
  }
}

TEST(Unicode, InvalidBytesDecodeLossily) {
  // A lone continuation byte and a truncated sequence must not crash and
  // decode to U+FFFD.
  std::vector<uint32_t> Out = fromUtf8(std::string("\x80"));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 0xFFFDu);
  Out = fromUtf8(std::string("\xE4\xB8")); // truncated 3-byte seq
  EXPECT_FALSE(Out.empty());
}

TEST(Unicode, Escaping) {
  EXPECT_EQ(escapeCodePoint('a'), "a");
  EXPECT_EQ(escapeCodePoint('\\'), "\\\\");
  EXPECT_EQ(escapeCodePoint(0x07), "\\u0007");
  EXPECT_EQ(escapeCodePoint(0x1F600), "\\U{01F600}");
  EXPECT_EQ(escapeWord({'a', 0x07}), "a\\u0007");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.below(10), 10u);
    uint64_t V = R.range(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
  }
}

TEST(Rng, RoughUniformity) {
  Rng R(99);
  size_t Buckets[8] = {};
  for (int I = 0; I != 8000; ++I)
    ++Buckets[R.below(8)];
  for (size_t B : Buckets) {
    EXPECT_GT(B, 800u); // each bucket within ±20% of expectation
    EXPECT_LT(B, 1200u);
  }
}

TEST(Hashing, MixSpreadsBits) {
  // Adjacent inputs must produce well-separated hashes.
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(hashMix(I));
  EXPECT_EQ(Seen.size(), 1000u);
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1)); // order sensitive
}

TEST(FlatMap64, DefaultConstructedMapIsEmptyAndGrowsOnInsert) {
  FlatMap64 Map;
  EXPECT_EQ(Map.find(0), nullptr);
  EXPECT_EQ(Map.find(42), nullptr);
  EXPECT_EQ(Map.size(), 0u);
  Map.clear(); // a no-op on a map that never allocated
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_EQ(Map.find(0), nullptr);

  // Past the first 64 slots' load limit the map grows, keeping every entry.
  for (uint32_t I = 0; I != 200; ++I)
    Map.insert(uint64_t{I} << 32 | (I * 7), I);
  EXPECT_EQ(Map.size(), 200u);
  for (uint32_t I = 0; I != 200; ++I) {
    const uint32_t *V = Map.find(uint64_t{I} << 32 | (I * 7));
    ASSERT_NE(V, nullptr) << I;
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(Map.find(uint64_t{200} << 32), nullptr);

  Map.clear();
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_EQ(Map.find(0), nullptr);
  Map.insert(5, 9);
  ASSERT_NE(Map.find(5), nullptr);
  EXPECT_EQ(*Map.find(5), 9u);
  EXPECT_EQ(Map.size(), 1u);
}

TEST(InternTable, DefaultConstructedTableGrowsOnFirstInsert) {
  InternTable Table;
  CacheStats Stats;
  std::vector<uint64_t> Keys;
  EXPECT_EQ(Table.size(), 0u);
  Table.clear(); // a no-op on a table that never allocated
  auto intern = [&](uint64_t Key) {
    return Table.findOrInsert(
        Key * 0x9e3779b97f4a7c15ULL,
        [&](uint32_t Id) { return Keys[Id] == Key; },
        [&] {
          Keys.push_back(Key);
          return static_cast<uint32_t>(Keys.size() - 1);
        },
        Stats);
  };
  for (uint64_t K = 0; K != 200; ++K)
    EXPECT_EQ(intern(K), K);
  for (uint64_t K = 0; K != 200; ++K)
    EXPECT_EQ(intern(K), K); // re-interning finds the first id
  EXPECT_EQ(Table.size(), 200u);
  EXPECT_EQ(Keys.size(), 200u);
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch W;
  volatile uint64_t Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + static_cast<uint64_t>(I);
  EXPECT_GE(W.elapsedUs(), 0);
  int64_t First = W.elapsedUs();
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + static_cast<uint64_t>(I);
  EXPECT_GE(W.elapsedUs(), First);
  W.reset();
  EXPECT_LE(W.elapsedUs(), First + 1000000);
}

} // namespace
