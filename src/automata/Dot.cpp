//===- automata/Dot.cpp - GraphViz rendering of automata -----------------------===//

#include "automata/Dot.h"

#include "charset/AlphabetCompressor.h"

using namespace sbd;

namespace {

/// Escapes a label for a DOT quoted string.
std::string dotEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string sbd::sbfaToDot(const Sbfa &A) {
  RegexManager &M = A.engine().regexManager();
  TrManager &T = A.engine().trManager();
  std::string Out = "digraph sbfa {\n  rankdir=LR;\n"
                    "  node [fontname=\"monospace\"];\n";
  for (uint32_t Q = 0; Q != A.numStates(); ++Q) {
    Out += "  q" + std::to_string(Q) + " [label=\"" +
           dotEscape(M.toString(A.states()[Q])) + "\", shape=" +
           (A.isFinal(Q) ? "doublecircle" : "circle") + "];\n";
  }
  // Edges: per state, per minterm block of its guards, the Boolean target
  // combination printed on one edge to a synthetic node when it is not a
  // single state.
  BoolExprManager B;
  size_t Synth = 0;
  for (uint32_t Q = 0; Q != A.numStates(); ++Q) {
    if (Q == A.bottomState())
      continue;
    std::vector<CharSet> Guards;
    T.collectGuards(A.transition(Q), Guards);
    AlphabetCompressor Compressor(Guards);
    for (uint32_t Cls = 0; Cls != Compressor.numClasses(); ++Cls) {
      CharSet Block = Compressor.classSet(static_cast<uint16_t>(Cls));
      uint32_t Rep = Compressor.representative(static_cast<uint16_t>(Cls));
      BE Target = A.configAfter(B, Q, Rep);
      if (Target == B.falseExpr())
        continue;
      std::string Label = dotEscape(Block.str());
      const BoolExprNode &N = B.node(Target);
      if (N.Kind == BoolExprKind::Atom) {
        Out += "  q" + std::to_string(Q) + " -> q" +
               std::to_string(N.Atom) + " [label=\"" + Label + "\"];\n";
        continue;
      }
      if (Target == B.trueExpr()) {
        Out += "  q" + std::to_string(Q) + " -> q" +
               std::to_string(A.topState()) + " [label=\"" + Label +
               "\"];\n";
        continue;
      }
      // Boolean combination: a small synthetic junction node.
      std::string Junction = "b";
      Junction.append(std::to_string(Synth++));
      std::string Expr = B.toString(Target, [&](uint32_t S) {
        return std::string("q").append(std::to_string(S));
      });
      Out += "  " + Junction + " [label=\"" + dotEscape(Expr) +
             "\", shape=box, style=dashed];\n";
      Out += "  q" + std::to_string(Q) + " -> " + Junction + " [label=\"" +
             Label + "\"];\n";
      for (uint32_t S : B.atoms(Target))
        Out += "  " + Junction + " -> q" + std::to_string(S) +
               " [style=dashed];\n";
    }
  }
  Out += "}\n";
  return Out;
}

std::string sbd::nfaToDot(const Snfa &A) {
  std::string Out = "digraph nfa {\n  rankdir=LR;\n";
  for (uint32_t S = 0; S != A.numStates(); ++S)
    Out += "  s" + std::to_string(S) + " [shape=" +
           (A.Final[S] ? "doublecircle" : "circle") + "];\n";
  for (uint32_t I : A.Initial)
    Out += "  start" + std::to_string(I) + " [shape=point]; start" +
           std::to_string(I) + " -> s" + std::to_string(I) + ";\n";
  for (uint32_t S = 0; S != A.numStates(); ++S)
    for (const auto &[Guard, To] : A.Trans[S])
      Out += "  s" + std::to_string(S) + " -> s" + std::to_string(To) +
             " [label=\"" + dotEscape(Guard.str()) + "\"];\n";
  Out += "}\n";
  return Out;
}

std::string sbd::dfaToDot(const Sdfa &A) {
  std::string Out = "digraph dfa {\n  rankdir=LR;\n";
  for (uint32_t S = 0; S != A.numStates(); ++S)
    Out += "  s" + std::to_string(S) + " [shape=" +
           (A.Final[S] ? "doublecircle" : "circle") + "];\n";
  Out += "  start [shape=point]; start -> s" + std::to_string(A.Initial) +
         ";\n";
  for (uint32_t S = 0; S != A.numStates(); ++S)
    for (const auto &[Guard, To] : A.Trans[S])
      Out += "  s" + std::to_string(S) + " -> s" + std::to_string(To) +
             " [label=\"" + dotEscape(Guard.str()) + "\"];\n";
  Out += "}\n";
  return Out;
}
