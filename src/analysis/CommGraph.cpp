//===--- CommGraph.cpp - Whole-program communication topology --------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CommGraph.h"

#include "frontend/Sema.h"

#include <algorithm>
#include <set>

using namespace esp;

AbsPattern esp::absFromOutExpr(const Expr *E, const ProcessDecl *Proc) {
  AbsPattern Out;
  if (!E) {
    Out.K = AbsPattern::Unknown;
    return Out;
  }
  if (std::optional<int64_t> V = tryEvalStatic(E, Proc)) {
    Out.K = AbsPattern::Const;
    Out.Value = *V;
    return Out;
  }
  switch (E->getKind()) {
  case ExprKind::RecordLit: {
    Out.K = AbsPattern::Record;
    for (const Expr *Elem : ast_cast<RecordLitExpr>(E)->getElems())
      Out.Kids.push_back(absFromOutExpr(Elem, Proc));
    return Out;
  }
  case ExprKind::UnionLit: {
    const UnionLitExpr *U = ast_cast<UnionLitExpr>(E);
    Out.K = AbsPattern::Union;
    Out.Arm = U->getFieldIndex();
    Out.Kids.push_back(absFromOutExpr(U->getValue(), Proc));
    return Out;
  }
  default:
    Out.K = AbsPattern::Unknown;
    return Out;
  }
}

bool esp::mayPair(const AbsPattern &In, const AbsPattern &Out) {
  return AbsPattern::overlap(In, Out) != AbsPattern::Overlap::Disjoint;
}

void esp::prunedSuccessors(const ProcIR &Proc, unsigned Index,
                           std::vector<unsigned> &Succs) {
  const Inst &I = Proc.Insts[Index];
  if (I.Kind == InstKind::Branch) {
    // "If Cond is false, jump to Target; otherwise fall through."
    if (std::optional<int64_t> V = tryEvalStatic(I.Cond, Proc.Proc)) {
      Succs.assign(1, *V != 0 ? Index + 1 : I.Target);
      return;
    }
  }
  collectSuccessors(I, Index, Succs);
}

namespace {

/// Collects the stops (Block instructions or TerminalStop) a process may
/// next block at starting *from* instruction \p Start, without crossing
/// another stop. \p BlockStop maps instruction index to stop index.
/// \p CrossesUnlink is set when the walk passes an Unlink instruction.
std::vector<unsigned> nextStops(const ProcIR &Proc,
                                const std::vector<int> &BlockStop,
                                unsigned Start, bool &CrossesUnlink) {
  std::vector<unsigned> Stops;
  std::vector<bool> Seen(Proc.Insts.size() + 1, false);
  std::vector<unsigned> Worklist = {Start};
  std::vector<unsigned> Succs;
  auto AddStop = [&Stops](unsigned Stop) {
    if (std::find(Stops.begin(), Stops.end(), Stop) == Stops.end())
      Stops.push_back(Stop);
  };
  while (!Worklist.empty()) {
    unsigned I = Worklist.back();
    Worklist.pop_back();
    if (I >= Proc.Insts.size()) {
      AddStop(ProcComm::TerminalStop);
      continue;
    }
    if (Seen[I])
      continue;
    Seen[I] = true;
    if (Proc.Insts[I].Kind == InstKind::Block) {
      AddStop(static_cast<unsigned>(BlockStop[I]));
      continue;
    }
    if (Proc.Insts[I].Kind == InstKind::Halt) {
      AddStop(ProcComm::TerminalStop);
      continue;
    }
    CrossesUnlink |= Proc.Insts[I].Kind == InstKind::Unlink;
    prunedSuccessors(Proc, I, Succs);
    for (unsigned S : Succs)
      Worklist.push_back(S);
  }
  return Stops;
}

/// Can the environment pair with a process-side case on an external
/// channel? The interface cases describe every value the external side
/// produces (writer) or accepts (reader), so the case can fire iff it is
/// not provably disjoint from all of them.
bool environmentMayPair(const ChannelDecl *Chan, const AbsPattern &Abs) {
  if (!Chan->Interface)
    return true; // Defensive: role without interface, assume fireable.
  for (const InterfaceCase &Case : Chan->Interface->Cases) {
    AbsPattern IfaceAbs = AbsPattern::fromPattern(Case.Pat, nullptr);
    if (AbsPattern::overlap(Abs, IfaceAbs) != AbsPattern::Overlap::Disjoint)
      return true;
  }
  return false;
}

} // namespace

CommGraph CommGraph::build(const ModuleIR &Module) {
  CommGraph Graph;
  Graph.Module = &Module;
  const unsigned NumChannels = Module.Prog->Channels.size();
  Graph.Writers.resize(NumChannels);
  Graph.Readers.resize(NumChannels);

  for (unsigned P = 0, NP = Module.Procs.size(); P != NP; ++P) {
    const ProcIR &Proc = Module.Procs[P];
    ProcComm Comm;
    Comm.IR = &Proc;

    // Instruction reachability over the pruned CFG.
    Comm.ReachableInsts.assign(Proc.Insts.size(), false);
    std::vector<unsigned> Worklist = {0};
    std::vector<unsigned> Succs;
    while (!Worklist.empty()) {
      unsigned I = Worklist.back();
      Worklist.pop_back();
      if (I >= Proc.Insts.size() || Comm.ReachableInsts[I])
        continue;
      Comm.ReachableInsts[I] = true;
      prunedSuccessors(Proc, I, Succs);
      for (unsigned S : Succs)
        Worklist.push_back(S);
    }

    // Stop points: every Block instruction (reachable or not, so the
    // reachability pass can name the unreachable ones).
    Comm.StopOfInst.assign(Proc.Insts.size(), -1);
    for (unsigned I = 0, E = Proc.Insts.size(); I != E; ++I) {
      if (Proc.Insts[I].Kind != InstKind::Block)
        continue;
      Comm.StopOfInst[I] = static_cast<int>(Comm.States.size());
      CommState State;
      State.InstIndex = I;
      State.ReachIn.assign(NumChannels, false);
      State.ReachOut.assign(NumChannels, false);
      Comm.States.push_back(std::move(State));
    }

    for (CommState &State : Comm.States) {
      const Inst &Ins = Proc.Insts[State.InstIndex];
      for (const IRCase &Case : Ins.Cases) {
        CommCase CC;
        CC.IR = &Case;
        CC.Abs = Case.IsIn
                     ? AbsPattern::fromPattern(Case.Pat, Proc.Proc)
                     : absFromOutExpr(Case.Out, Proc.Proc);
        if (Case.Guard) {
          if (std::optional<int64_t> G = tryEvalStatic(Case.Guard, Proc.Proc))
            CC.GuardFalse = *G == 0;
        }
        CC.External = Case.Channel->Role != ChannelRole::Internal;
        if (CC.External && !CC.GuardFalse)
          CC.ExternalFireable = environmentMayPair(Case.Channel, CC.Abs);
        bool Unlinks = false;
        CC.Succs = nextStops(Proc, Comm.StopOfInst, Case.Target, Unlinks);
        bool Halts = std::find(CC.Succs.begin(), CC.Succs.end(),
                               ProcComm::TerminalStop) != CC.Succs.end();
        CC.HeapUnsafe = Unlinks || Halts;
        if (!CC.GuardFalse)
          (Case.IsIn ? State.ReachIn : State.ReachOut)[Case.Channel->Id] =
              true;
        State.Cases.push_back(std::move(CC));
      }
    }

    // Transitive endpoint reachability: fixpoint over the stop graph.
    // Guard-false cases can never commit, so their successors contribute
    // nothing either.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (CommState &State : Comm.States)
        for (const CommCase &CC : State.Cases) {
          if (CC.GuardFalse)
            continue;
          for (unsigned Succ : CC.Succs) {
            if (Succ == ProcComm::TerminalStop)
              continue;
            const CommState &T = Comm.States[Succ];
            for (unsigned C = 0; C != NumChannels; ++C) {
              if (T.ReachIn[C] && !State.ReachIn[C]) {
                State.ReachIn[C] = true;
                Changed = true;
              }
              if (T.ReachOut[C] && !State.ReachOut[C]) {
                State.ReachOut[C] = true;
                Changed = true;
              }
            }
          }
        }
    }

    bool Unused = false;
    Comm.InitialStops = nextStops(Proc, Comm.StopOfInst, 0, Unused);
    Graph.Procs.push_back(std::move(Comm));
  }

  for (unsigned P = 0, NP = Graph.Procs.size(); P != NP; ++P) {
    const ProcComm &Comm = Graph.Procs[P];
    for (unsigned S = 0, NS = Comm.States.size(); S != NS; ++S) {
      const CommState &State = Comm.States[S];
      for (unsigned C = 0, NC = State.Cases.size(); C != NC; ++C) {
        const CommCase &CC = State.Cases[C];
        unsigned ChanId = CC.IR->Channel->Id;
        ChannelEnd End{P, S, C};
        (CC.IR->IsIn ? Graph.Readers : Graph.Writers)[ChanId].push_back(End);
      }
    }
  }

  // Visibility cliques: a channel without pairwise-disjoint reader
  // patterns whose internal writer may pair with reader ends in two or
  // more distinct processes can raise AmbiguousDispatch, a predicate over
  // the joint configuration of the writer and all candidate readers.
  for (const std::unique_ptr<ChannelDecl> &Chan : Module.Prog->Channels) {
    const std::vector<ChannelEnd> &Writers = Graph.Writers[Chan->Id];
    const std::vector<ChannelEnd> &Readers = Graph.Readers[Chan->Id];
    if (Writers.empty() || Readers.empty() ||
        channelReadersDisjoint(*Module.Prog, Chan.get()))
      continue;
    for (const ChannelEnd &W : Writers) {
      if (!Graph.isSite(W))
        continue;
      std::set<unsigned> ReaderProcs;
      for (const ChannelEnd &R : Readers)
        if (Graph.isSite(R) &&
            mayPair(Graph.caseAt(R).Abs, Graph.caseAt(W).Abs))
          ReaderProcs.insert(R.Proc);
      if (ReaderProcs.size() < 2)
        continue;
      Graph.Procs[W.Proc].InClique = true;
      for (unsigned RP : ReaderProcs)
        Graph.Procs[RP].InClique = true;
    }
  }
  return Graph;
}
