//===--- Por.cpp - Ample-set partial-order reduction ---------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mc/Por.h"

#include <algorithm>

using namespace esp;
using namespace esp::mc_detail;

namespace {

/// Internal participants of a move as a process bitmask. Environment
/// endpoints contribute nothing: the environment is stateless, so an
/// env-side send or receive touches only its internal partner.
uint64_t participants(const Move &Mv) {
  uint64_t Mask = 0;
  if (Mv.Writer >= 0)
    Mask |= 1ull << static_cast<unsigned>(Mv.Writer);
  if (Mv.Reader >= 0)
    Mask |= 1ull << static_cast<unsigned>(Mv.Reader);
  return Mask;
}

} // namespace

PorContext::PorContext(const ModuleIR &Module, bool EnvBudgeted)
    : Graph(CommGraph::build(Module)), EnvBudgeted(EnvBudgeted) {
  for (size_t P = 0; P != Graph.Procs.size() && P < 64; ++P)
    if (Graph.Procs[P].InClique)
      CliqueMask |= 1ull << P;
  markCycleClosingCases();
}

void PorContext::markCycleClosingCases() {
  // Edges that can lie on a cycle of the state graph. A receive on an
  // environment-driven channel (no writer end anywhere in the module) is
  // an environment send; under a budget it bumps its channel's counter,
  // which never goes down and is part of the state, so no cycle contains
  // one.
  auto OnSkeleton = [&](const CommCase &C) {
    if (C.GuardFalse)
      return false;
    return !(EnvBudgeted && C.IR->IsIn &&
             Graph.Writers[C.IR->Channel->Id].empty());
  };

  Closing.resize(Graph.Procs.size());
  for (size_t P = 0; P != Graph.Procs.size(); ++P) {
    const ProcComm &PC = Graph.Procs[P];
    Closing[P].resize(PC.States.size());
    for (size_t S = 0; S != PC.States.size(); ++S)
      Closing[P][S].assign(PC.States[S].Cases.size(), false);

    // Iterative DFS; an edge into a stop still on the DFS stack is a
    // back edge and marks its case. Halting is no stop to return from.
    enum : uint8_t { Unvisited, OnStack, Finished };
    std::vector<uint8_t> Color(PC.States.size(), Unvisited);
    struct Cursor {
      unsigned Stop, Case = 0, Succ = 0;
    };
    std::vector<Cursor> Stack;
    auto visit = [&](unsigned Root) {
      if (Root == ProcComm::TerminalStop || Color[Root] != Unvisited)
        return;
      Color[Root] = OnStack;
      Stack.push_back({Root});
      while (!Stack.empty()) {
        Cursor &Top = Stack.back();
        const std::vector<CommCase> &Cases = PC.States[Top.Stop].Cases;
        if (Top.Case == Cases.size()) {
          Color[Top.Stop] = Finished;
          Stack.pop_back();
          continue;
        }
        const CommCase &C = Cases[Top.Case];
        if (!OnSkeleton(C) || Top.Succ == C.Succs.size()) {
          ++Top.Case;
          Top.Succ = 0;
          continue;
        }
        unsigned Next = C.Succs[Top.Succ++];
        if (Next == ProcComm::TerminalStop)
          continue;
        if (Color[Next] == OnStack)
          Closing[P][Top.Stop][Top.Case] = true;
        else if (Color[Next] == Unvisited) {
          Color[Next] = OnStack;
          Stack.push_back({Next});
        }
      }
    };
    for (unsigned S : PC.InitialStops)
      visit(S);
    for (unsigned S = 0; S != PC.States.size(); ++S)
      visit(S);
  }
}

uint64_t PorContext::closure(const Machine &M, const int *Stop,
                             unsigned Seed) const {
  const unsigned NumProcs = M.numProcesses();
  uint64_t Closed = 1ull << Seed;
  unsigned Work[64];
  unsigned WorkSize = 0;
  Work[WorkSize++] = Seed;
  while (WorkSize) {
    unsigned Q = Work[--WorkSize];
    if (Stop[Q] < 0)
      continue; // Done/Failed: no future endpoints.
    const CommState &S = Graph.Procs[Q].States[Stop[Q]];
    const ProcState &PS = M.proc(Q);
    for (size_t K = 0; K != S.Cases.size(); ++K) {
      const CommCase &C = S.Cases[K];
      if (C.GuardFalse)
        continue;
      // Guards are frozen while the process is blocked, so a case that
      // is dynamically disabled here stays disabled until Q moves.
      if (K < PS.CaseEnabled.size() && !PS.CaseEnabled[K])
        continue;
      const bool IsIn = C.IR->IsIn;
      const unsigned Chan = C.IR->Channel->Id;
      for (unsigned R = 0; R != NumProcs; ++R) {
        if ((Closed >> R) & 1)
          continue;
        if (Stop[R] < 0)
          continue;
        const CommState &RS = Graph.Procs[R].States[Stop[R]];
        bool Pull = IsIn ? RS.ReachOut[Chan] : RS.ReachIn[Chan];
        // Under a finite per-channel environment budget two receives
        // from the same channel are dependent through the shared
        // counter (one can consume the last unit and disable the
        // other), so same-direction reader endpoints get pulled too.
        if (!Pull && EnvBudgeted && IsIn)
          Pull = RS.ReachIn[Chan];
        if (Pull) {
          Closed |= 1ull << R;
          Work[WorkSize++] = R;
        }
      }
    }
  }
  return Closed;
}

bool PorContext::moveHeapUnsafe(const Move &Mv, const int *Stop) const {
  auto CaseUnsafe = [&](int P, unsigned CaseIndex) {
    if (P < 0)
      return false; // Environment side: nothing to free.
    if (Stop[P] < 0)
      return true; // Should not happen for an enabled move; be safe.
    const CommState &S = Graph.Procs[P].States[Stop[P]];
    if (CaseIndex >= S.Cases.size())
      return true;
    const CommCase &C = S.Cases[CaseIndex];
    if (C.IR->Channel->Id != Mv.Channel)
      return true; // Static/dynamic disagreement: be safe.
    return C.HeapUnsafe;
  };
  return CaseUnsafe(Mv.Writer, Mv.WriterCase) ||
         CaseUnsafe(Mv.Reader, Mv.ReaderCase);
}

bool PorContext::moveClosesCycle(const Move &Mv, const int *Stop) const {
  // Out-of-range cases were already rejected by moveHeapUnsafe.
  auto CaseCloses = [&](int P, unsigned CaseIndex) {
    return P >= 0 && Closing[P][Stop[P]][CaseIndex];
  };
  return CaseCloses(Mv.Writer, Mv.WriterCase) ||
         CaseCloses(Mv.Reader, Mv.ReaderCase);
}

size_t PorContext::selectAmple(const Machine &M, std::vector<Move> &Moves,
                               bool &ProvisoRejected) const {
  ProvisoRejected = false;
  const size_t NumMoves = Moves.size();
  if (NumMoves <= 1)
    return NumMoves; // A singleton expansion is already minimal.
  const unsigned NumProcs = M.numProcesses();
  if (NumProcs == 0 || NumProcs > 64 || Graph.Procs.size() != NumProcs)
    return NumMoves;

  // Current stop per process; bail to full expansion when a blocked
  // process's PC is not a known stop point.
  int Stop[64];
  for (unsigned P = 0; P != NumProcs; ++P) {
    const ProcState &PS = M.proc(P);
    if (PS.St == ProcState::Status::Blocked) {
      const std::vector<int> &StopOfInst = Graph.Procs[P].StopOfInst;
      int S = PS.PC < StopOfInst.size() ? StopOfInst[PS.PC] : -1;
      if (S < 0)
        return NumMoves;
      Stop[P] = S;
    } else {
      Stop[P] = -1;
    }
  }

  std::vector<uint64_t> Part(NumMoves);
  uint64_t Active = 0;
  for (size_t I = 0; I != NumMoves; ++I) {
    Part[I] = participants(Moves[I]);
    if (!Part[I])
      return NumMoves; // An env-to-env move cannot exist; be safe.
    Active |= Part[I];
  }

  // Try every process with an enabled move as the closure seed and keep
  // the smallest eligible ample set (ties go to the lowest seed index,
  // which keeps the choice deterministic).
  size_t BestCount = NumMoves;
  uint64_t BestSet = 0;
  for (unsigned Seed = 0; Seed != NumProcs; ++Seed) {
    if (!((Active >> Seed) & 1))
      continue;
    uint64_t Closed = closure(M, Stop, Seed);
    if ((Active & ~Closed) == 0)
      continue; // Closure swallowed every active process: no reduction.
    size_t Count = 0;
    bool Ok = true;
    bool ClosesCycle = false;
    for (size_t I = 0; I != NumMoves && Ok; ++I) {
      if (Part[I] & ~Closed) {
        // C1 invariant: an enabled move never straddles the closure
        // (its other participant would have been pulled in). If the
        // static facts and the dynamic state ever disagree, fall back.
        if (Part[I] & Closed)
          Ok = false;
        continue;
      }
      ++Count;
      if (Part[I] & CliqueMask)
        Ok = false; // C2: clique members' moves stay visible.
      else if (moveHeapUnsafe(Moves[I], Stop))
        Ok = false; // C2: heap-visible commit bodies stay visible.
      else if (moveClosesCycle(Moves[I], Stop))
        ClosesCycle = true;
    }
    if (!Ok || Count == 0 || Count >= NumMoves)
      continue;
    if (ClosesCycle) {
      ProvisoRejected = true; // C3: a cycle-closing move stays full.
      continue;
    }
    if (Count < BestCount) {
      BestCount = Count;
      BestSet = Closed;
    }
  }
  if (BestCount >= NumMoves)
    return NumMoves;

  std::stable_partition(Moves.begin(), Moves.end(), [&](const Move &Mv) {
    return (participants(Mv) & ~BestSet) == 0;
  });
  return BestCount;
}
