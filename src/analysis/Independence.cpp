//===--- Independence.cpp - esplint interference detector -----------------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The esplint interference detector over CommGraph's independence facts:
// the self-rendezvous warning and the --interference conflict-class
// report.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace esp;

namespace {

/// The conservative conflict relation: moves at the two sites commute
/// unless they share a process, share a channel, or both processes belong
/// to a visibility clique.
bool conflicts(const CommGraph &Graph, const ChannelEnd &A,
               const ChannelEnd &B) {
  if (A.Proc == B.Proc)
    return true;
  if (Graph.caseAt(A).IR->Channel == Graph.caseAt(B).IR->Channel)
    return true;
  return Graph.Procs[A.Proc].InClique && Graph.Procs[B.Proc].InClique;
}

std::string siteLabel(const CommGraph &Graph, const ChannelEnd &S) {
  const IRCase &C = *Graph.caseAt(S).IR;
  return "process '" + Graph.Procs[S.Proc].IR->Proc->Name + "' " +
         (C.IsIn ? "in(" : "out(") + C.Channel->Name + ")";
}

/// The first communication site among \p Ends, or null.
const ChannelEnd *firstSite(const CommGraph &Graph,
                            const std::vector<ChannelEnd> &Ends) {
  for (const ChannelEnd &End : Ends)
    if (Graph.isSite(End))
      return &End;
  return nullptr;
}

/// Flags internal channels whose send and receive endpoints are all in
/// one and the same process instance: a process cannot rendezvous with
/// itself, so every send on such a channel blocks forever. The model
/// checker only catches this dynamically, as a deadlock.
void checkSelfRendezvous(const CommGraph &Graph, AnalysisResult &Result) {
  for (const std::unique_ptr<ChannelDecl> &Chan :
       Graph.Module->Prog->Channels) {
    if (Chan->Role != ChannelRole::Internal)
      continue;
    const std::vector<ChannelEnd> &Writers = Graph.Writers[Chan->Id];
    const std::vector<ChannelEnd> &Readers = Graph.Readers[Chan->Id];
    const ChannelEnd *FirstWriter = firstSite(Graph, Writers);
    const ChannelEnd *FirstReader = firstSite(Graph, Readers);
    if (!FirstWriter || !FirstReader)
      continue;
    unsigned Proc = FirstWriter->Proc;
    auto AllInProc = [&](const std::vector<ChannelEnd> &Ends) {
      return std::all_of(Ends.begin(), Ends.end(), [&](const ChannelEnd &E) {
        return !Graph.isSite(E) || E.Proc == Proc;
      });
    };
    if (!AllInProc(Writers) || !AllInProc(Readers))
      continue;
    AnalysisFinding F;
    F.Kind = AnalysisKind::Interference;
    F.Severity = AnalysisSeverity::Warning;
    F.Loc = Graph.caseAt(*FirstWriter).IR->Loc;
    F.Message = "channel '" + Chan->Name +
                "': send and receive endpoints are both in process '" +
                Graph.Procs[Proc].IR->Proc->Name +
                "'; a process cannot rendezvous with itself, so every "
                "send here blocks forever (self-rendezvous deadlock)";
    F.Notes.push_back({Graph.caseAt(*FirstReader).IR->Loc,
                       "the only receive endpoint is here"});
    Result.Findings.push_back(std::move(F));
  }
}

/// The --interference report: one note-severity finding summarizing the
/// conflict classes, with one note per communication site listing its
/// channel and how many other sites it conflicts with.
void reportInterference(const CommGraph &Graph, AnalysisResult &Result) {
  // Every communication site, in (proc, stop, case) order.
  std::vector<ChannelEnd> Sites;
  for (unsigned P = 0; P != Graph.Procs.size(); ++P)
    for (unsigned S = 0; S != Graph.Procs[P].States.size(); ++S)
      for (unsigned K = 0; K != Graph.Procs[P].States[S].Cases.size(); ++K)
        if (Graph.isSite({P, S, K}))
          Sites.push_back({P, S, K});
  if (Sites.empty())
    return;

  std::vector<uint64_t> Conflicts(Sites.size(), 0);
  uint64_t ConflictingPairs = 0;
  for (size_t I = 0; I != Sites.size(); ++I)
    for (size_t J = I + 1; J != Sites.size(); ++J)
      if (conflicts(Graph, Sites[I], Sites[J])) {
        ++Conflicts[I];
        ++Conflicts[J];
        ++ConflictingPairs;
      }
  uint64_t N = Sites.size();
  uint64_t SitePairs = N * (N - 1) / 2;
  double Commuting = 100.0;
  if (SitePairs != 0)
    Commuting = 100.0 * static_cast<double>(SitePairs - ConflictingPairs) /
                static_cast<double>(SitePairs);

  char Percent[32];
  std::snprintf(Percent, sizeof(Percent), "%.1f", Commuting);
  AnalysisFinding F;
  F.Kind = AnalysisKind::Interference;
  F.Severity = AnalysisSeverity::Note;
  F.Loc = Graph.caseAt(Sites.front()).IR->Loc;
  F.Message = std::to_string(N) + " communication site(s), " +
              std::to_string(SitePairs) + " site pair(s), " +
              std::to_string(ConflictingPairs) + " conflicting; " + Percent +
              "% statically commuting";
  for (size_t I = 0; I != Sites.size(); ++I) {
    const CommCase &C = Graph.caseAt(Sites[I]);
    std::string Label = "site " + std::to_string(I) + ": " +
                        siteLabel(Graph, Sites[I]) + ", conflicts with " +
                        std::to_string(Conflicts[I]) + " site(s)";
    if (C.HeapUnsafe)
      Label += ", heap-visible commit body";
    if (Graph.Procs[Sites[I].Proc].InClique)
      Label += ", in a dispatch visibility clique";
    F.Notes.push_back({C.IR->Loc, std::move(Label)});
  }
  Result.Findings.push_back(std::move(F));
}

} // namespace

void esp::detail::checkInterference(const CommGraph &Graph,
                                    const AnalysisOptions &Options,
                                    AnalysisResult &Result) {
  if (Options.CheckInterference)
    checkSelfRendezvous(Graph, Result);
  if (Options.ReportInterference)
    reportInterference(Graph, Result);
}
