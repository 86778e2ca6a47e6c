//===--- Reachability.cpp - Reachability / usefulness analysis -------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Usefulness checks over the communication topology: code the program
/// can never execute and communication that can never happen. All
/// findings here are warnings — dead code is suspicious but harmless.
/// The channel-level no-reader/no-writer checks stay in the frontend's
/// PatternAnalysis (they need no IR); this pass covers what only the
/// pruned CFG and whole-program pairing can see.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"

using namespace esp;

namespace {

void addWarning(AnalysisResult &Result, SourceLoc Loc, std::string Message) {
  AnalysisFinding F;
  F.Kind = AnalysisKind::Reachability;
  F.Severity = AnalysisSeverity::Warning;
  F.Loc = Loc;
  F.Message = std::move(Message);
  Result.Findings.push_back(std::move(F));
}

} // namespace

void esp::detail::checkReachability(const Program &Prog,
                                    const CommGraph &Graph,
                                    AnalysisResult &Result) {
  // 1. Communication points the process can never reach.
  for (const ProcComm &Comm : Graph.Procs)
    for (const CommState &State : Comm.States)
      if (!Comm.ReachableInsts[State.InstIndex])
        addWarning(Result, Comm.IR->Insts[State.InstIndex].Loc,
                   "this communication statement in process '" +
                       Comm.IR->Proc->Name + "' is unreachable");

  // 2 & 3. Case-level checks at reachable stops: statically-false guards
  // and receives/sends that can never pair with any counterpart.
  for (unsigned P = 0, NP = Graph.Procs.size(); P != NP; ++P) {
    const ProcComm &Comm = Graph.Procs[P];
    for (unsigned S = 0, NS = Comm.States.size(); S != NS; ++S) {
      if (!Comm.isReachableState(S))
        continue;
      for (const CommCase &Case : Comm.States[S].Cases) {
        const ChannelDecl *Chan = Case.IR->Channel;
        if (Case.GuardFalse) {
          addWarning(Result, Case.IR->Loc,
                     "the guard of this case is statically false; the "
                     "case can never be selected");
          continue;
        }
        if (Case.External) {
          if (!Case.ExternalFireable)
            addWarning(Result, Case.IR->Loc,
                       Case.IR->IsIn
                           ? "this receive on external channel '" +
                                 Chan->Name +
                                 "' matches none of the values interface '" +
                                 Chan->Interface->Name + "' can send"
                           : "this send on external channel '" + Chan->Name +
                                 "' matches none of the values interface '" +
                                 Chan->Interface->Name + "' accepts");
          continue;
        }
        // Internal: collect reachable, non-dead counterpart ends.
        const std::vector<ChannelEnd> &Peers =
            Case.IR->IsIn ? Graph.Writers[Chan->Id] : Graph.Readers[Chan->Id];
        bool AnyPeer = false, AnyLivePair = false;
        for (const ChannelEnd &End : Peers) {
          const CommCase &Peer = Graph.caseAt(End);
          if (Peer.GuardFalse)
            continue;
          AnyPeer = true;
          if (!Graph.Procs[End.Proc].isReachableState(End.State))
            continue;
          if (mayPair(Case.IR->IsIn ? Case.Abs : Peer.Abs,
                      Case.IR->IsIn ? Peer.Abs : Case.Abs))
            AnyLivePair = true;
        }
        // No counterpart at all is already a frontend pattern warning
        // ("written but never read" / "read but never written").
        if (AnyPeer && !AnyLivePair)
          addWarning(Result, Case.IR->Loc,
                     Case.IR->IsIn
                         ? "this receive on channel '" + Chan->Name +
                               "' can never fire: no reachable send "
                               "produces a matching value"
                         : "this send on channel '" + Chan->Name +
                               "' can never fire: no reachable receive "
                               "accepts the value");
      }
    }
  }

  // 4. Channels whose only readers (or writers) sit in unreachable code.
  for (const auto &Chan : Prog.Channels) {
    if (Chan->Role != ChannelRole::Internal)
      continue;
    unsigned Id = Chan->Id;
    auto CountEnds = [&](const std::vector<ChannelEnd> &Ends,
                         unsigned &Total, unsigned &Live) {
      Total = Live = 0;
      for (const ChannelEnd &End : Ends) {
        if (Graph.caseAt(End).GuardFalse)
          continue;
        ++Total;
        if (Graph.Procs[End.Proc].isReachableState(End.State))
          ++Live;
      }
    };
    unsigned TotalW, LiveW, TotalR, LiveR;
    CountEnds(Graph.Writers[Id], TotalW, LiveW);
    CountEnds(Graph.Readers[Id], TotalR, LiveR);
    if (LiveW > 0 && LiveR == 0 && TotalR > 0)
      addWarning(Result, Chan->Loc,
                 "channel '" + Chan->Name +
                     "' is written, but all of its receives are "
                     "unreachable");
    else if (LiveR > 0 && LiveW == 0 && TotalW > 0)
      addWarning(Result, Chan->Loc,
                 "channel '" + Chan->Name +
                     "' is read, but all of its sends are unreachable");
  }
}
