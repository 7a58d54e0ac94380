//===- fuzz/Generator.cpp - Seeded random ERE + word generation ------------===//

#include "fuzz/Generator.h"

#include <algorithm>

using namespace sbd;
using namespace sbd::fuzz;

/// Draw weight of the overlapping-guards family (φ·X)|(ψ·Y) with φ∧ψ ≠ ⊥,
/// sometimes behind a prefix shared by both branches (see genOverlap).
static constexpr uint32_t OverlapWeight = 1;

CharSet RegexGenerator::generateCharSet() {
  // A small overlapping alphabet: most predicates draw from 'a'..'h' and
  // '0'..'9' so that distinct predicates frequently intersect, which is
  // what produces interesting minterm structure.
  switch (R.below(16)) {
  case 0:
  case 1:
  case 2:
  case 3:
  case 4:
  case 5: // singleton in the core alphabet
    return CharSet::singleton('a' + static_cast<uint32_t>(R.below(6)));
  case 6:
  case 7: { // short range of lowercase letters
    uint32_t Lo = 'a' + static_cast<uint32_t>(R.below(6));
    uint32_t Hi = Lo + static_cast<uint32_t>(R.below(4));
    return CharSet::range(Lo, std::min<uint32_t>(Hi, 'z'));
  }
  case 8: { // digit range
    uint32_t Lo = '0' + static_cast<uint32_t>(R.below(5));
    uint32_t Hi = Lo + static_cast<uint32_t>(R.below(5));
    return CharSet::range(Lo, std::min<uint32_t>(Hi, '9'));
  }
  case 9: // named classes
    switch (R.below(4)) {
    case 0:
      return CharSet::digit();
    case 1:
      return CharSet::word();
    case 2:
      return CharSet::space();
    default:
      return CharSet::asciiLetter();
    }
  case 10: // complement of a singleton/range (exercises huge interval sets)
    return generateCharSet().complement();
  case 11: { // union of two draws
    CharSet A = CharSet::singleton('a' + static_cast<uint32_t>(R.below(6)));
    CharSet B = CharSet::singleton('0' + static_cast<uint32_t>(R.below(6)));
    return A.unionWith(B);
  }
  case 12: // non-ASCII range (exercises the full Unicode domain)
    return CharSet::range(0x4E00, 0x4E00 + static_cast<uint32_t>(R.below(16)));
  case 13: // the '.' predicate
    return CharSet::full();
  default: // fallthrough: another core singleton
    return CharSet::singleton('a' + static_cast<uint32_t>(R.below(8)));
  }
}

Re RegexGenerator::genLeaf() {
  uint64_t Total = Opts.WeightPred + Opts.WeightEpsilon + Opts.WeightEmpty;
  uint64_t Pick = Total ? R.below(Total) : 0;
  if (Pick < Opts.WeightPred)
    return M.pred(generateCharSet());
  Pick -= Opts.WeightPred;
  if (Pick < Opts.WeightEpsilon)
    return M.epsilon();
  return M.empty();
}

Re RegexGenerator::gen(uint32_t Budget) {
  if (Budget <= 1)
    return genLeaf();

  // Weighted draw over the composite constructors plus the leaves.
  struct Ticket {
    RegexKind Kind;
    uint32_t Weight;
    bool Overlap = false; ///< the genOverlap family, not Kind itself
  };
  const Ticket Tickets[] = {
      {RegexKind::Pred, Opts.WeightPred},
      {RegexKind::Concat, Opts.WeightConcat},
      {RegexKind::Union, Opts.WeightUnion},
      {RegexKind::Inter, Opts.WeightInter},
      {RegexKind::Star, Opts.WeightStar},
      {RegexKind::Loop, Opts.WeightLoop},
      {RegexKind::Compl, Opts.WeightCompl},
      {RegexKind::Epsilon, Opts.WeightEpsilon},
      {RegexKind::Empty, Opts.WeightEmpty},
      {RegexKind::Union, OverlapWeight, /*Overlap=*/true},
  };
  uint64_t Total = 0;
  for (const Ticket &T : Tickets)
    Total += T.Weight;
  uint64_t Pick = R.below(Total ? Total : 1);
  RegexKind Kind = RegexKind::Pred;
  bool Overlap = false;
  for (const Ticket &T : Tickets) {
    if (Pick < T.Weight) {
      Kind = T.Kind;
      Overlap = T.Overlap;
      break;
    }
    Pick -= T.Weight;
  }
  if (Overlap)
    return genOverlap(Budget);

  switch (Kind) {
  case RegexKind::Concat: {
    uint32_t Left = 1 + static_cast<uint32_t>(R.below(Budget - 1));
    return M.concat(gen(Left), gen(Budget - Left));
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    uint32_t Arity = Budget >= 6 && R.chance(1, 4) ? 3 : 2;
    uint32_t Share = (Budget - 1) / Arity;
    std::vector<Re> Kids;
    for (uint32_t I = 0; I != Arity; ++I)
      Kids.push_back(gen(Share ? Share : 1));
    return Kind == RegexKind::Union ? M.unionList(std::move(Kids))
                                    : M.interList(std::move(Kids));
  }
  case RegexKind::Star:
    return M.star(gen(Budget - 1));
  case RegexKind::Loop: {
    uint32_t Min = static_cast<uint32_t>(R.below(Opts.MaxLoopBound + 1));
    uint32_t Max;
    if (R.chance(1, 5)) {
      Max = LoopInf;
    } else {
      Max = Min + static_cast<uint32_t>(R.below(Opts.MaxLoopBound + 1));
      if (Max == 0)
        Max = 1; // loop() requires Max >= 1 unless Min == Max == 0
    }
    return M.loop(gen(Budget - 1), Min, Max);
  }
  case RegexKind::Compl:
    return M.complement(gen(Budget - 1));
  case RegexKind::Pred:
  case RegexKind::Epsilon:
  case RegexKind::Empty:
  default:
    return genLeaf();
  }
}

Re RegexGenerator::genOverlap(uint32_t Budget) {
  CharSet Phi = generateCharSet();
  if (Phi.isEmpty())
    Phi = CharSet::singleton('a');
  // ψ repeats φ or joins φ's least member to a fresh draw: either way
  // φ∧ψ ≠ ⊥, and often both guards sample the same character.
  CharSet Psi = Phi;
  if (R.chance(1, 2))
    Psi = generateCharSet().unionWith(CharSet::singleton(*Phi.sample()));
  const uint32_t Rest = Budget > 3 ? Budget - 3 : 1;
  const uint32_t PrefixBudget = Rest >= 4 && R.chance(1, 2) ? Rest / 3 : 0;
  // One statement per draw: the draw order must not depend on the
  // compiler's argument evaluation order.
  Re Prefix = PrefixBudget ? gen(PrefixBudget) : M.epsilon();
  const uint32_t Share = std::max<uint32_t>(1, (Rest - PrefixBudget) / 2);
  Re X = gen(Share);
  Re Y = gen(Share);
  Re A = M.concat(Prefix, M.concat(M.pred(Phi), X));
  Re B = M.concat(Prefix, M.concat(M.pred(Psi), Y));
  return M.union_(A, B);
}

void WordGenerator::prime(Re Rx) {
  Pool.clear();
  std::vector<CharSet> Preds = M.collectPredicates(Rx);
  if (Preds.size() > Opts.MaxPredsForMinterms)
    Preds.resize(Opts.MaxPredsForMinterms);
  // One representative per minterm block: every Boolean combination of the
  // regex's predicates gets at least one witness character in the pool.
  for (const CharSet &Block : computeMinterms(Preds)) {
    if (Pool.size() >= Opts.MaxPoolChars)
      break;
    if (auto Cp = Block.sample())
      Pool.push_back(*Cp);
  }
  // Fixed anchors so the pool is never empty and plain literals still get
  // their own characters even when the regex has no predicates.
  Pool.push_back('a');
  Pool.push_back('b');
  Pool.push_back('0');
}

std::vector<uint32_t> WordGenerator::generate() {
  // Bias toward short words (take the min of two draws): most engine
  // disagreements reproduce within a handful of characters, and short
  // samples keep the per-sample engine cost flat.
  uint64_t A = R.below(Opts.MaxWordLen + 1);
  uint64_t B = R.below(Opts.MaxWordLen + 1);
  size_t Len = static_cast<size_t>(std::min(A, B));
  std::vector<uint32_t> Word;
  Word.reserve(Len);
  for (size_t I = 0; I != Len; ++I) {
    uint64_t Roll = R.below(10);
    if (Roll < 8 && !Pool.empty())
      Word.push_back(Pool[R.below(Pool.size())]);
    else if (Roll == 8)
      Word.push_back('a' + static_cast<uint32_t>(R.below(26)));
    else
      Word.push_back(static_cast<uint32_t>(R.below(MaxCodePoint + 1)));
  }
  return Word;
}
