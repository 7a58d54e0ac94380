//===- tests/FuzzOracleTest.cpp - Differential fuzzing subsystem tests ------===//
//
// Deterministic coverage of src/fuzz: the seeded generators, the
// cross-engine differential oracle on a hand-picked seed corpus, the
// greedy shrinker (including the injected-bug negative test the ISSUE
// demands: a corrupted engine must be caught AND reduced to a minimal
// witness), the campaign driver, and the JSON report format.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "policy/Json.h"
#include "re/RegexParser.h"

#include <gtest/gtest.h>

#include <set>

using namespace sbd;
using namespace sbd::fuzz;

namespace {

/// Fixture wiring one arena stack + oracle the way the driver does.
struct OracleFixture {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  DifferentialOracle O{E, S};

  std::vector<uint32_t> word(const std::string &Ascii) {
    std::vector<uint32_t> W;
    for (char C : Ascii)
      W.push_back(static_cast<uint32_t>(static_cast<unsigned char>(C)));
    return W;
  }
};

//===----------------------------------------------------------------------===//
// Seed corpus: hand-picked patterns covering every constructor, checked
// through the full oracle with zero expected discrepancies.
//===----------------------------------------------------------------------===//

struct CorpusEntry {
  const char *Pattern;
  const char *Words[4]; // nullptr-terminated list of sample words
};

const CorpusEntry SeedCorpus[] = {
    {"abc", {"abc", "ab", "abcd", nullptr}},
    {"(a|b)*", {"", "abab", "abc", nullptr}},
    {"a*&~(b)", {"", "aaa", "b", nullptr}},
    {"~(a*)", {"", "aa", "ba", nullptr}},
    {"(a|b)*a(a|b){2}", {"aaa", "abab", "ba", nullptr}},
    {"[a-c]{2,4}", {"ab", "abca", "a", nullptr}},
    {"(ab)*&(a|b)*", {"abab", "aba", "", nullptr}},
    {"~(~(a))", {"a", "b", "", nullptr}},
    {"(a&b)c", {"c", "ac", "", nullptr}},
    {"[^a]*", {"", "bcd", "bad", nullptr}},
    {"\\d{1,3}", {"7", "123", "1234", nullptr}},
    {"(a|ab)(c|bc)", {"abc", "ac", "abbc", nullptr}},
    {"~(.*ab.*)", {"", "ab", "ba", nullptr}},
    {"((a|b)*&~(.*aa.*))b", {"abb", "aab", "b", nullptr}},
    {"a{2,}", {"a", "aa", "aaaa", nullptr}},
    // Tied least words: two vertices reached by "a" (shortlex_witness).
    {"(az)|([a-b]y)", {"az", "ay", "by", nullptr}},
    {"(ay)|(az)", {"az", "ay", "a", nullptr}},
};

TEST(FuzzOracle, SeedCorpusIsCleanAcrossAllEngines) {
  OracleFixture F;
  std::vector<Discrepancy> Ds;
  for (const CorpusEntry &C : SeedCorpus) {
    Re R = parseRegexOrDie(F.M, C.Pattern);
    std::vector<std::vector<uint32_t>> Words;
    Words.push_back({}); // always probe ϵ
    for (const char *const *W = C.Words; *W; ++W)
      Words.push_back(F.word(*W));
    F.O.checkSample(R, Words, Ds);
    EXPECT_TRUE(Ds.empty()) << "pattern " << C.Pattern << " first: "
                            << (Ds.empty() ? "" : Ds.front().Detail);
    Ds.clear();
  }
  EXPECT_GT(F.O.checksRun(), 0u);
}

TEST(FuzzOracle, DeMorganLawsHoldOnCorpusPairs) {
  OracleFixture F;
  std::vector<Discrepancy> Ds;
  Re A = parseRegexOrDie(F.M, "(a|b)*a");
  Re B = parseRegexOrDie(F.M, "b(a|b)*");
  std::vector<std::vector<uint32_t>> Words = {
      {}, F.word("a"), F.word("ba"), F.word("ab"), F.word("bab")};
  F.O.checkDeMorgan(A, B, Words, Ds);
  EXPECT_TRUE(Ds.empty()) << (Ds.empty() ? "" : Ds.front().Detail);
}

//===----------------------------------------------------------------------===//
// Generators: determinism and constructor coverage.
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, SameSeedSameRegexes) {
  RegexManager M1, M2;
  RegexGenerator G1(M1, 12345), G2(M2, 12345);
  for (int I = 0; I != 50; ++I) {
    Re A = G1.generate();
    Re B = G2.generate();
    EXPECT_EQ(M1.toString(A), M2.toString(B)) << "diverged at sample " << I;
  }
}

TEST(FuzzGenerator, CoversEveryConstructor) {
  RegexManager M;
  RegexGenerator G(M, 99);
  std::set<RegexKind> Seen;
  std::function<void(Re)> Walk = [&](Re R) {
    Seen.insert(M.kind(R));
    for (Re K : M.kids(R))
      Walk(K);
  };
  for (int I = 0; I != 400; ++I)
    Walk(G.generate());
  for (RegexKind K :
       {RegexKind::Empty, RegexKind::Epsilon, RegexKind::Pred,
        RegexKind::Concat, RegexKind::Star, RegexKind::Loop, RegexKind::Union,
        RegexKind::Inter, RegexKind::Compl})
    EXPECT_TRUE(Seen.count(K))
        << "constructor " << static_cast<int>(K) << " never generated";
}

TEST(FuzzGenerator, GeneratedPatternsRoundTripThroughParser) {
  RegexManager M;
  RegexGenerator G(M, 2024);
  for (int I = 0; I != 100; ++I) {
    Re R = G.generate();
    std::string S = M.toString(R);
    RegexParseResult P = parseRegex(M, S);
    ASSERT_TRUE(P.Ok) << "unparseable print: " << S << " (" << P.Error << ")";
    EXPECT_EQ(P.Value, R) << "reparse not identical for: " << S;
  }
}

TEST(FuzzGenerator, WordPoolContainsMintermWitnesses) {
  RegexManager M;
  WordGenerator W(M, 7);
  Re R = parseRegexOrDie(M, "[a-d]*&~([b-c]*)");
  W.prime(R);
  // The pool must witness both predicate blocks: something in [b-c] and
  // something in [a-d] \ [b-c].
  bool InBC = false, InADnotBC = false;
  for (uint32_t Cp : W.pool()) {
    InBC |= Cp == 'b' || Cp == 'c';
    InADnotBC |= Cp == 'a' || Cp == 'd';
  }
  EXPECT_TRUE(InBC);
  EXPECT_TRUE(InADnotBC);
  // Word generation is deterministic per seed.
  WordGenerator W2(M, 7);
  W2.prime(R);
  EXPECT_EQ(W.generate(), W2.generate());
}

//===----------------------------------------------------------------------===//
// Shrinker.
//===----------------------------------------------------------------------===//

TEST(FuzzShrinker, ReductionsAreStrictlySmaller) {
  RegexManager M;
  Shrinker Sh(M);
  Re R = parseRegexOrDie(M, "(ab|c*d){2,5}&~(e|f)");
  for (Re C : Sh.reductions(R))
    EXPECT_LT(M.node(C).Size, M.node(R).Size);
}

TEST(FuzzShrinker, MinimizesToTheFailingCore) {
  RegexManager M;
  Shrinker Sh(M);
  // "Failure" = the regex still contains an intersection node. The
  // minimal such term reachable by one-step reductions keeps exactly one
  // Inter over leaves that the smart constructors cannot fold away.
  std::function<bool(Re)> HasInter = [&](Re R) {
    if (M.kind(R) == RegexKind::Inter)
      return true;
    for (Re K : M.kids(R))
      if (HasInter(K))
        return true;
    return false;
  };
  Re Big = parseRegexOrDie(M, "(ab|c)*((ab&(a|b)b)|d{2,3})e*");
  std::vector<uint32_t> W = {'x', 'y', 'z'};
  ASSERT_TRUE(HasInter(Big));
  ShrinkResult R = Sh.shrink(
      Big, W, [&](Re C, const std::vector<uint32_t> &) { return HasInter(C); });
  EXPECT_TRUE(HasInter(R.Pattern));
  EXPECT_LE(M.node(R.Pattern).Size, 5u) << M.toString(R.Pattern);
  EXPECT_TRUE(R.Word.empty()); // the word plays no role in this failure
  EXPECT_GT(R.Steps, 0u);
}

//===----------------------------------------------------------------------===//
// The negative test: an intentionally corrupted engine must be caught and
// shrunk to a minimal witness (≤ 8 syntax nodes).
//===----------------------------------------------------------------------===//

TEST(FuzzNegative, CorruptedEngineIsCaughtAndShrunkToMinimalWitness) {
  FuzzOptions Opts;
  Opts.Seed = 7;
  Opts.Iterations = 400;
  Opts.CorruptStub = true;
  Opts.MaxDiscrepancies = 8;
  FuzzReport Rep = runFuzz(Opts);

  ASSERT_FALSE(Rep.Discrepancies.empty())
      << "oracle failed to catch the injected inter-as-union bug";
  bool SawStub = false;
  uint32_t MinNodes = ~0u;
  for (const Discrepancy &D : Rep.Discrepancies) {
    if (D.Engine != "inter_as_union_stub")
      continue;
    SawStub = true;
    MinNodes = std::min(MinNodes, D.RegexNodes);
    // The reported pattern must round-trip and still reproduce the bug.
    RegexManager M;
    RegexParseResult P = parseRegex(M, D.Pattern);
    ASSERT_TRUE(P.Ok) << D.Pattern;
    TrManager T(M);
    DerivativeEngine E(M, T);
    DifferentialOracle::MembershipStub Stub = interAsUnionStub();
    EXPECT_NE(Stub.Matches(M, E, P.Value, D.Word),
              E.matches(P.Value, D.Word))
        << "shrunk sample no longer reproduces: " << D.Pattern;
  }
  ASSERT_TRUE(SawStub);
  EXPECT_LE(MinNodes, 8u) << "shrinker left a non-minimal witness";
}

TEST(FuzzNegative, RegressionSnippetMentionsTheShrunkPattern) {
  Discrepancy D;
  D.Law = OracleLaw::Membership;
  D.Engine = "inter_as_union_stub";
  D.Pattern = "a&b\\d";
  D.Word = {'a'};
  D.Detail = "stub=1 ref=0";
  D.RegexNodes = 4;
  std::string Snippet = renderRegressionTest(D, 7, 1);
  EXPECT_NE(Snippet.find("TEST(SbdFuzzRegression, Seed7Case1)"),
            std::string::npos);
  EXPECT_NE(Snippet.find("a&b\\\\d"), std::string::npos)
      << "pattern must be C++-escaped:\n"
      << Snippet;
  EXPECT_NE(Snippet.find("{{97}}"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Campaign driver + JSON report.
//===----------------------------------------------------------------------===//

TEST(FuzzCampaign, CleanRunOverAllEngines) {
  FuzzOptions Opts;
  Opts.Seed = 42;
  Opts.Iterations = 300;
  FuzzReport Rep = runFuzz(Opts);
  EXPECT_TRUE(Rep.ok()) << Rep.json();
  EXPECT_EQ(Rep.Iterations, 300u);
  EXPECT_EQ(Rep.Samples, 300u * Opts.WordsPerRegex);
  EXPECT_GT(Rep.Checks, Rep.Samples);
  // The δdnf walk is judged on every sample like any other engine.
  bool SawDnfWalk = false;
  for (const EngineTiming &T : Rep.Timings)
    if (T.Name == "dnf_walk") {
      SawDnfWalk = true;
      EXPECT_EQ(T.Calls, Rep.Samples);
    }
  EXPECT_TRUE(SawDnfWalk) << "dnf_walk never ran";
}

TEST(FuzzCampaign, RunsAreDeterministicPerSeed) {
  FuzzOptions Opts;
  Opts.Seed = 99;
  Opts.Iterations = 120;
  FuzzReport A = runFuzz(Opts);
  FuzzReport B = runFuzz(Opts);
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.Checks, B.Checks);
  EXPECT_EQ(A.Discrepancies.size(), B.Discrepancies.size());
}

TEST(FuzzCampaign, JsonReportParsesAndCarriesTheContract) {
  FuzzOptions Opts;
  Opts.Seed = 5;
  Opts.Iterations = 60;
  FuzzReport Rep = runFuzz(Opts);
  JsonParseResult P = parseJson(Rep.json());
  ASSERT_TRUE(P.Ok) << P.Error << "\n" << Rep.json();
  const JsonValue &V = P.Value;
  ASSERT_TRUE(V.isObject());
  ASSERT_NE(V.get("seed"), nullptr);
  EXPECT_EQ(V.get("seed")->asNumber(), 5.0);
  EXPECT_EQ(V.get("iterations")->asNumber(), 60.0);
  ASSERT_NE(V.get("ok"), nullptr);
  EXPECT_TRUE(V.get("ok")->asBool());
  ASSERT_NE(V.get("discrepancies"), nullptr);
  EXPECT_TRUE(V.get("discrepancies")->isArray());
  const JsonValue *Timings = V.get("engine_timings");
  ASSERT_NE(Timings, nullptr);
  ASSERT_TRUE(Timings->isArray());
  // Exactly the oracle's engines were exercised: each one ran, and no
  // engine outside this list reports.
  std::set<std::string> Names;
  for (const JsonValue &T : Timings->asArray())
    Names.insert(T.get("name")->asString());
  const std::set<std::string> Engines = {
      "ref_matcher", "dfa_matcher",   "tiny_dfa_matcher", "dnf_walk",
      "sbfa",        "safa",          "eager_dfa",        "antimirov_nfa",
      "solver_bfs",  "solver_dfs",    "antimirov",        "brzozowski_minterm",
      "eager"};
  EXPECT_EQ(Names, Engines);
  ASSERT_NE(V.get("obs"), nullptr);
  EXPECT_TRUE(V.get("obs")->isObject());
}

TEST(FuzzCampaign, CorruptReportJsonEscapesCleanly) {
  FuzzOptions Opts;
  Opts.Seed = 7;
  Opts.Iterations = 150;
  Opts.CorruptStub = true;
  Opts.MaxDiscrepancies = 4;
  FuzzReport Rep = runFuzz(Opts);
  ASSERT_FALSE(Rep.ok());
  JsonParseResult P = parseJson(Rep.json());
  ASSERT_TRUE(P.Ok) << P.Error << "\n" << Rep.json();
  const JsonValue *Ds = P.Value.get("discrepancies");
  ASSERT_NE(Ds, nullptr);
  ASSERT_FALSE(Ds->asArray().empty());
  const JsonValue &D0 = Ds->asArray().front();
  EXPECT_EQ(D0.get("law")->asString(), "membership");
  EXPECT_EQ(D0.get("engine")->asString(), "inter_as_union_stub");
}

} // namespace
