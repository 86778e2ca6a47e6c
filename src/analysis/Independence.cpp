//===--- Independence.cpp - Static move-independence analysis ------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Builds the whole-program independence summary (see Independence.h) on
// top of CommGraph's stop-point skeleton, and implements the esplint
// interference detector: the self-rendezvous warning and the
// --interference conflict-class report.
//
//===----------------------------------------------------------------------===//

#include "analysis/Independence.h"

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"
#include "frontend/PatternAnalysis.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace esp;

namespace {

/// Does the commit body starting at \p Target free heap objects (Unlink)
/// or halt / fall off the end of the process before reaching the next
/// stop point? Freeing is visible to the object-table bound and the leak
/// sweep; halting changes the deadlock predicate. Either makes the case
/// ineligible for an ample set.
bool commitBodyHeapUnsafe(const ProcIR &Proc, unsigned Target) {
  std::vector<bool> Seen(Proc.Insts.size(), false);
  std::vector<unsigned> Work = {Target};
  std::vector<unsigned> Succs;
  while (!Work.empty()) {
    unsigned Index = Work.back();
    Work.pop_back();
    if (Index >= Proc.Insts.size())
      return true; // Fell off the end: implicit halt.
    if (Seen[Index])
      continue;
    Seen[Index] = true;
    const Inst &I = Proc.Insts[Index];
    if (I.Kind == InstKind::Unlink || I.Kind == InstKind::Halt)
      return true;
    if (I.Kind == InstKind::Block)
      continue; // Reached the next stop point: the body is clean.
    Succs.clear();
    prunedSuccessors(Proc, Index, Succs);
    if (Succs.empty())
      return true; // No successor: end of process.
    for (unsigned S : Succs)
      Work.push_back(S);
  }
  return false;
}

/// Are the reader patterns of \p Chan pairwise disjoint? Mirrors the
/// runtime's per-channel Disjoint flag (CompiledProgram): on such a
/// channel dispatch stops at the first match and AmbiguousDispatch can
/// never be raised, so the channel creates no visibility clique.
bool readersPairwiseDisjoint(const Program &Prog, const ChannelDecl *Chan) {
  std::vector<ChannelReader> Readers = collectChannelReaders(Prog, Chan);
  for (size_t I = 0; I != Readers.size(); ++I)
    for (size_t J = I + 1; J != Readers.size(); ++J)
      if (AbsPattern::overlap(Readers[I].Abs, Readers[J].Abs) !=
          AbsPattern::Overlap::Disjoint)
        return false;
  return true;
}

} // namespace

IndependenceInfo esp::buildIndependence(const ModuleIR &Module) {
  IndependenceInfo Info;
  Info.Module = &Module;

  CommGraph CG = CommGraph::build(Module);

  // Channel ids are dense parser-assigned indices over Prog->Channels,
  // but stay defensive about gaps.
  unsigned NumChannels =
      Module.Prog ? static_cast<unsigned>(Module.Prog->Channels.size()) : 0;
  for (const ProcComm &PC : CG.Procs)
    for (const CommState &S : PC.States)
      for (const CommCase &C : S.Cases)
        NumChannels = std::max(NumChannels, C.IR->Channel->Id + 1);
  Info.NumChannels = NumChannels;

  // Per-process stop facts, mirroring CommGraph's state/case indexing so
  // case indices line up with IRCase order (and with the runtime's
  // CaseEnabled vector and Move case fields).
  Info.Procs.resize(CG.Procs.size());
  for (size_t P = 0; P != CG.Procs.size(); ++P) {
    const ProcComm &PC = CG.Procs[P];
    IndepProc &IP = Info.Procs[P];
    IP.IR = PC.IR;
    for (unsigned S : PC.InitialStops)
      if (S != ProcComm::TerminalStop)
        IP.InitialStops.push_back(S);
    IP.StopOfInst.assign(PC.IR->Insts.size(), -1);
    IP.Stops.resize(PC.States.size());
    for (size_t S = 0; S != PC.States.size(); ++S) {
      const CommState &CS = PC.States[S];
      IndepStop &Stop = IP.Stops[S];
      Stop.InstIndex = CS.InstIndex;
      if (CS.InstIndex < IP.StopOfInst.size())
        IP.StopOfInst[CS.InstIndex] = static_cast<int>(S);
      Stop.ReachIn.assign(NumChannels, false);
      Stop.ReachOut.assign(NumChannels, false);
      Stop.Cases.resize(CS.Cases.size());
      for (size_t K = 0; K != CS.Cases.size(); ++K) {
        const CommCase &CC = CS.Cases[K];
        IndepCase &IC = Stop.Cases[K];
        IC.Channel = CC.IR->Channel->Id;
        IC.IsIn = CC.IR->IsIn;
        IC.GuardFalse = CC.GuardFalse;
        IC.Loc = CC.IR->Loc;
        for (unsigned Succ : CC.Succs)
          if (Succ != ProcComm::TerminalStop)
            IC.Succs.push_back(Succ);
        IC.HeapUnsafe =
            IC.GuardFalse ? false
                          : commitBodyHeapUnsafe(*PC.IR, CC.IR->Target);
        if (!IC.GuardFalse)
          (IC.IsIn ? Stop.ReachIn : Stop.ReachOut)[IC.Channel] = true;
      }
    }

    // Transitive endpoint reachability: fixpoint over the stop graph.
    // Guard-false cases can never commit, so neither their own endpoint
    // nor their successors contribute.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t S = 0; S != PC.States.size(); ++S) {
        IndepStop &Stop = IP.Stops[S];
        for (size_t K = 0; K != PC.States[S].Cases.size(); ++K) {
          const CommCase &CC = PC.States[S].Cases[K];
          if (CC.GuardFalse)
            continue;
          for (unsigned Succ : CC.Succs) {
            if (Succ == ProcComm::TerminalStop)
              continue;
            const IndepStop &T = IP.Stops[Succ];
            for (unsigned C = 0; C != NumChannels; ++C) {
              if (T.ReachIn[C] && !Stop.ReachIn[C]) {
                Stop.ReachIn[C] = true;
                Changed = true;
              }
              if (T.ReachOut[C] && !Stop.ReachOut[C]) {
                Stop.ReachOut[C] = true;
                Changed = true;
              }
            }
          }
        }
      }
    }
  }

  // Visibility cliques: a non-disjoint channel whose internal writer may
  // pair with reader ends in two or more distinct processes can raise
  // AmbiguousDispatch, a predicate over the joint configuration of the
  // writer and all candidate readers. Every member's moves must stay
  // visible so the reduced search still reaches the error state.
  std::vector<const ChannelDecl *> ChanById(NumChannels, nullptr);
  if (Module.Prog)
    for (const std::unique_ptr<ChannelDecl> &C : Module.Prog->Channels)
      if (C->Id < NumChannels)
        ChanById[C->Id] = C.get();
  for (unsigned C = 0; C != NumChannels; ++C) {
    if (C >= CG.Writers.size() || C >= CG.Readers.size())
      continue;
    if (CG.Writers[C].empty() || CG.Readers[C].empty())
      continue;
    const ChannelDecl *Chan = ChanById[C];
    if (Chan && Module.Prog && readersPairwiseDisjoint(*Module.Prog, Chan))
      continue;
    for (const ChannelEnd &W : CG.Writers[C]) {
      if (!CG.Procs[W.Proc].isReachableState(W.State))
        continue;
      const CommCase &WC = CG.caseAt(W);
      if (WC.GuardFalse)
        continue;
      std::set<unsigned> ReaderProcs;
      for (const ChannelEnd &R : CG.Readers[C]) {
        if (!CG.Procs[R.Proc].isReachableState(R.State))
          continue;
        const CommCase &RC = CG.caseAt(R);
        if (RC.GuardFalse)
          continue;
        if (mayPair(RC.Abs, WC.Abs))
          ReaderProcs.insert(R.Proc);
      }
      if (ReaderProcs.size() >= 2) {
        Info.Procs[W.Proc].InClique = true;
        for (unsigned RP : ReaderProcs)
          Info.Procs[RP].InClique = true;
      }
    }
  }

  // Interference summary over reachable, non-guard-false sites.
  for (size_t P = 0; P != CG.Procs.size(); ++P)
    for (size_t S = 0; S != CG.Procs[P].States.size(); ++S) {
      if (!CG.Procs[P].isReachableState(static_cast<unsigned>(S)))
        continue;
      for (size_t K = 0; K != CG.Procs[P].States[S].Cases.size(); ++K) {
        if (CG.Procs[P].States[S].Cases[K].GuardFalse)
          continue;
        Info.Sites.push_back({static_cast<unsigned>(P),
                              static_cast<unsigned>(S),
                              static_cast<unsigned>(K)});
      }
    }
  size_t N = Info.Sites.size();
  Info.SitePairs = N < 2 ? 0 : static_cast<uint64_t>(N) * (N - 1) / 2;
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J)
      if (Info.conflicts(Info.Sites[I], Info.Sites[J]))
        ++Info.ConflictingPairs;

  return Info;
}

//===----------------------------------------------------------------------===//
// The esplint interference detector.
//===----------------------------------------------------------------------===//

namespace {

std::string channelNameById(const Program &Prog, uint32_t Id) {
  for (const std::unique_ptr<ChannelDecl> &C : Prog.Channels)
    if (C->Id == Id)
      return C->Name;
  return "<channel " + std::to_string(Id) + ">";
}

std::string siteLabel(const Program &Prog, const IndependenceInfo &Info,
                      const IndepSite &S) {
  const IndepCase &C = Info.caseAt(S);
  std::string Proc = Info.Procs[S.Proc].IR->Proc
                         ? Info.Procs[S.Proc].IR->Proc->Name
                         : "<proc>";
  return "process '" + Proc + "' " + (C.IsIn ? "in(" : "out(") +
         channelNameById(Prog, C.Channel) + ")";
}

/// Flags internal channels whose send and receive endpoints are all in
/// one and the same process instance: a process cannot rendezvous with
/// itself, so every send on such a channel blocks forever. The model
/// checker only catches this dynamically, as a deadlock.
void checkSelfRendezvous(const Program &Prog, const IndependenceInfo &Info,
                         AnalysisResult &Result) {
  for (unsigned C = 0; C != Info.NumChannels; ++C) {
    const ChannelDecl *Chan = nullptr;
    for (const std::unique_ptr<ChannelDecl> &CD : Prog.Channels)
      if (CD->Id == C)
        Chan = CD.get();
    if (!Chan || Chan->Role != ChannelRole::Internal)
      continue;
    std::set<unsigned> WriterProcs, ReaderProcs;
    const IndepSite *FirstWriter = nullptr, *FirstReader = nullptr;
    for (const IndepSite &S : Info.Sites) {
      const IndepCase &IC = Info.caseAt(S);
      if (IC.Channel != C)
        continue;
      if (IC.IsIn) {
        ReaderProcs.insert(S.Proc);
        if (!FirstReader)
          FirstReader = &S;
      } else {
        WriterProcs.insert(S.Proc);
        if (!FirstWriter)
          FirstWriter = &S;
      }
    }
    if (WriterProcs.empty() || ReaderProcs.empty())
      continue;
    if (WriterProcs != ReaderProcs || WriterProcs.size() != 1)
      continue;
    std::string Proc = Info.Procs[*WriterProcs.begin()].IR->Proc->Name;
    AnalysisFinding F;
    F.Kind = AnalysisKind::Interference;
    F.Severity = AnalysisSeverity::Warning;
    F.Loc = Info.caseAt(*FirstWriter).Loc;
    F.Message = "channel '" + Chan->Name +
                "': send and receive endpoints are both in process '" +
                Proc +
                "'; a process cannot rendezvous with itself, so every "
                "send here blocks forever (self-rendezvous deadlock)";
    F.Notes.push_back(
        {Info.caseAt(*FirstReader).Loc, "the only receive endpoint is here"});
    Result.Findings.push_back(std::move(F));
  }
}

/// The --interference report: one note-severity finding summarizing the
/// conflict classes, with one note per communication site listing its
/// channel and how many other sites it conflicts with.
void reportInterference(const Program &Prog, const IndependenceInfo &Info,
                        AnalysisResult &Result) {
  if (Info.Sites.empty())
    return;
  char Percent[32];
  std::snprintf(Percent, sizeof(Percent), "%.1f", Info.commutingPercent());
  AnalysisFinding F;
  F.Kind = AnalysisKind::Interference;
  F.Severity = AnalysisSeverity::Note;
  F.Loc = Info.caseAt(Info.Sites.front()).Loc;
  F.Message = std::to_string(Info.Sites.size()) +
              " communication site(s), " + std::to_string(Info.SitePairs) +
              " site pair(s), " + std::to_string(Info.ConflictingPairs) +
              " conflicting; " + Percent + "% statically commuting";
  for (size_t I = 0; I != Info.Sites.size(); ++I) {
    const IndepSite &S = Info.Sites[I];
    uint64_t Conflicts = 0;
    for (size_t J = 0; J != Info.Sites.size(); ++J)
      if (J != I && Info.conflicts(S, Info.Sites[J]))
        ++Conflicts;
    std::string Label = "site " + std::to_string(I) + ": " +
                        siteLabel(Prog, Info, S) + ", conflicts with " +
                        std::to_string(Conflicts) + " site(s)";
    if (Info.caseAt(S).HeapUnsafe)
      Label += ", heap-visible commit body";
    if (Info.Procs[S.Proc].InClique)
      Label += ", in a dispatch visibility clique";
    F.Notes.push_back({Info.caseAt(S).Loc, std::move(Label)});
  }
  Result.Findings.push_back(std::move(F));
}

} // namespace

void esp::detail::checkInterference(const Program &Prog,
                                    const ModuleIR &Module,
                                    const AnalysisOptions &Options,
                                    AnalysisResult &Result) {
  IndependenceInfo Info = buildIndependence(Module);
  if (Options.CheckInterference)
    checkSelfRendezvous(Prog, Info, Result);
  if (Options.ReportInterference)
    reportInterference(Prog, Info, Result);
}
