//===--- ProgramGen.cpp - Seeded ESP pipeline programs --------------------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The compile workload's large input: a source process, a chain of
// filter stages and a sink, linked by rendezvous channels carrying a
// three-field record. Every process does a fixed number of local
// statements (assignments, if/else, bounded loops, array updates in the
// stages) between its one receive and its one send, so the communication
// skeleton — and with it the analysis's deadlock search — stays small
// while the frontend, lowering, optimizer and backends see a big body.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <string>

using namespace espbench;

namespace {

constexpr unsigned kVars = 8;
constexpr unsigned kArrayLen = 8;

class Generator {
public:
  explicit Generator(uint64_t Seed) : R(Seed) {}

  std::string program(unsigned Stages, unsigned Stmts) {
    if (Stages < 2)
      Stages = 2;
    Out += "// Generated pipeline program (perfbench compile workload).\n";
    Out += "const LIMIT = " + std::to_string(3 + R.below(7)) + ";\n";
    Out += "type msgT = record of { a: int, b: int, c: int }\n";
    for (unsigned I = 0; I + 1 != Stages; ++I)
      Out += "channel s" + std::to_string(I) + ": msgT\n";

    for (unsigned P = 0; P != Stages; ++P) {
      bool Source = P == 0, Sink = P + 1 == Stages;
      HasArray = !Source && !Sink;
      Out += "\nprocess " +
             std::string(Source ? "src" : Sink ? "sink" : "stage") +
             (Source || Sink ? "" : std::to_string(P)) + " {\n";
      Out += "  $n = 0;\n";
      for (unsigned V = 0; V != kVars; ++V)
        Out += "  $v" + std::to_string(V) + " = " +
               std::to_string(R.below(100)) + ";\n";
      if (HasArray)
        Out += "  $arr: #array of int = #{ " + std::to_string(kArrayLen) +
               " -> 0 };\n";
      Out += Sink || Source ? "  while (n < LIMIT) {\n" : "  while (true) {\n";
      if (!Source) {
        Out += "    in( s" + std::to_string(P - 1) + ", { $a, $b, $c });\n";
        Out += "    v0 = a; v1 = b; v2 = c;\n";
      }
      unsigned Budget = Stmts;
      while (Budget)
        statement(4, 0, Budget);
      if (!Sink)
        Out += "    out( s" + std::to_string(P) + ", { " + var() + ", " +
               var() + ", " + var() + " });\n";
      Out += "    n = n + 1;\n  }\n}\n";
    }
    return Out;
  }

private:
  std::string var() {
    std::string V = "v";
    V += std::to_string(R.below(kVars));
    return V;
  }

  std::string leaf() {
    if (R.below(3) == 0)
      return std::to_string(R.below(100));
    if (HasArray && R.below(6) == 0)
      return "arr[" + var() + " % " + std::to_string(kArrayLen) + "]";
    return var();
  }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || R.below(3) == 0)
      return leaf();
    static const char *const Ops[] = {" + ", " - ", " * "};
    const char *Op = Ops[R.below(3)];
    // Multiply by a constant only, so values stay in a small range.
    std::string Rhs = Op[1] == '*' ? std::to_string(1 + R.below(7))
                                   : expr(Depth - 1);
    return "(" + expr(Depth - 1) + Op + Rhs + ")";
  }

  std::string cond() {
    static const char *const Rel[] = {" < ", " <= ", " == ", " != ", " > "};
    std::string C = expr(1) + Rel[R.below(5)] + expr(1);
    if (R.below(4) == 0)
      C = "(" + C + ") && (" + var() + " >= " + std::to_string(R.below(50)) +
          ")";
    return C;
  }

  void indent(unsigned Level) { Out.append(2 * (Level + 2), ' '); }

  /// Emits one statement at nesting \p Level, charging it (and anything
  /// nested in it) to \p Budget.
  void statement(unsigned MaxDepth, unsigned Level, unsigned &Budget) {
    --Budget;
    uint64_t Kind = R.below(20);
    if (Kind < 3 && Level < MaxDepth && Budget >= 4) {
      indent(Level);
      Out += "if (" + cond() + ") {\n";
      block(MaxDepth, Level + 1, Budget);
      indent(Level);
      Out += "} else {\n";
      block(MaxDepth, Level + 1, Budget);
      indent(Level);
      Out += "}\n";
      return;
    }
    if (Kind == 3 && Level < 2 && Budget >= 4) {
      std::string K = "k" + std::to_string(Counter++);
      indent(Level);
      Out += "$" + K + " = 0;\n";
      indent(Level);
      Out += "while (" + K + " < " + std::to_string(2 + R.below(3)) + ") {\n";
      block(MaxDepth, Level + 1, Budget);
      indent(Level + 1);
      Out += K + " = " + K + " + 1;\n";
      indent(Level);
      Out += "}\n";
      return;
    }
    indent(Level);
    if (Kind == 4 && HasArray)
      Out += "arr[" + var() + " % " + std::to_string(kArrayLen) +
             "] = " + expr(2) + ";\n";
    else
      Out += var() + " = " + expr(2) + ";\n";
  }

  void block(unsigned MaxDepth, unsigned Level, unsigned &Budget) {
    unsigned Len = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I != Len && Budget; ++I)
      statement(MaxDepth, Level, Budget);
  }

  Rng R;
  std::string Out;
  bool HasArray = false;
  unsigned Counter = 0;
};

} // namespace

std::string espbench::generateProgram(uint64_t Seed, unsigned Stages,
                                      unsigned StmtsPerStage) {
  return Generator(Seed).program(Stages, StmtsPerStage);
}
