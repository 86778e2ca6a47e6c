//===--- Deadlock.cpp - Static deadlock detection --------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A reachability search over the product of the per-process
/// communication skeletons (CommGraph). Data is abstracted away: branch
/// conditions are nondeterministic unless statically constant, guards are
/// assumed satisfiable unless statically false, and pattern/value pairing
/// uses the three-valued AbsPattern overlap with "unknown" treated as
/// "may fire". A deadlock is a reachable configuration in which every
/// process sits at a block point and no rendezvous (internal or with the
/// always-willing environment) can fire.
///
/// The abstractions are chosen so that a *reported* configuration is
/// stuck under every data valuation that reaches it; what remains
/// approximate is whether the configuration is reachable at all (the
/// product search ignores data), so findings are "possible deadlock" —
/// see docs/analysis.md.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace esp;

namespace {

/// One product configuration: the current stop of every participating
/// process (States.size() encodes the terminal stop).
using Config = std::vector<unsigned>;

std::string encodeConfig(const Config &C) {
  std::string Key;
  Key.reserve(C.size() * 4);
  for (unsigned Stop : C)
    for (unsigned B = 0; B != 4; ++B)
      Key.push_back(static_cast<char>((Stop >> (8 * B)) & 0xff));
  return Key;
}

struct DeadlockSearch {
  const CommGraph &Graph;
  const std::vector<unsigned> &Parts; ///< Module proc index per config slot.
  uint64_t MaxConfigs;

  std::unordered_set<std::string> Visited;
  std::deque<Config> Queue;
  uint64_t Explored = 0;
  bool Incomplete = false;

  DeadlockSearch(const CommGraph &Graph, const std::vector<unsigned> &Parts,
                 uint64_t MaxConfigs)
      : Graph(Graph), Parts(Parts), MaxConfigs(MaxConfigs) {}

  unsigned terminalOf(unsigned Slot) const {
    return static_cast<unsigned>(Graph.Procs[Parts[Slot]].States.size());
  }

  bool isTerminal(const Config &C, unsigned Slot) const {
    return C[Slot] == terminalOf(Slot);
  }

  unsigned stopFromComm(unsigned Slot, unsigned Stop) const {
    return Stop == ProcComm::TerminalStop ? terminalOf(Slot) : Stop;
  }

  void enqueue(Config C) {
    std::string Key = encodeConfig(C);
    if (Visited.count(Key))
      return;
    if (Visited.size() >= MaxConfigs) {
      Incomplete = true;
      return;
    }
    Visited.insert(std::move(Key));
    Queue.push_back(std::move(C));
  }

  /// Appends every configuration reachable from \p C in one move to
  /// \p Out. Returns true if at least one move exists.
  bool successors(const Config &C, std::vector<Config> &Out) const {
    bool Any = false;
    for (unsigned I = 0, N = Parts.size(); I != N; ++I) {
      if (isTerminal(C, I))
        continue;
      const ProcComm &PC = Graph.Procs[Parts[I]];
      const CommState &State = PC.States[C[I]];
      for (const CommCase &Case : State.Cases) {
        if (Case.GuardFalse)
          continue;
        if (Case.External) {
          if (!Case.ExternalFireable)
            continue;
          Any = true;
          for (unsigned Succ : Case.Succs) {
            Config Next = C;
            Next[I] = stopFromComm(I, Succ);
            Out.push_back(std::move(Next));
          }
          continue;
        }
        if (Case.IR->IsIn)
          continue; // Internal rendezvous are driven from the out side.
        for (unsigned J = 0; J != N; ++J) {
          if (J == I || isTerminal(C, J))
            continue;
          const CommState &Peer = Graph.Procs[Parts[J]].States[C[J]];
          for (const CommCase &InCase : Peer.Cases) {
            if (InCase.GuardFalse || InCase.External || !InCase.IR->IsIn ||
                InCase.IR->Channel != Case.IR->Channel)
              continue;
            if (!mayPair(InCase.Abs, Case.Abs))
              continue;
            Any = true;
            for (unsigned SI : Case.Succs)
              for (unsigned SJ : InCase.Succs) {
                Config Next = C;
                Next[I] = stopFromComm(I, SI);
                Next[J] = stopFromComm(J, SJ);
                Out.push_back(std::move(Next));
              }
          }
        }
      }
    }
    return Any;
  }
};

/// In a stuck configuration, process \p I waits for process \p J when one
/// of I's current alternatives names a channel whose opposite end is
/// (somewhere) implemented by J.
std::vector<std::vector<unsigned>> waitForEdges(const CommGraph &Graph,
                                                const DeadlockSearch &Search,
                                                const Config &C) {
  unsigned N = static_cast<unsigned>(Search.Parts.size());
  std::vector<std::vector<unsigned>> Edges(N);
  for (unsigned I = 0; I != N; ++I) {
    const CommState &State = Graph.Procs[Search.Parts[I]].States[C[I]];
    for (const CommCase &Case : State.Cases) {
      if (Case.GuardFalse || Case.External)
        continue;
      unsigned ChanId = Case.IR->Channel->Id;
      const std::vector<ChannelEnd> &Peers =
          Case.IR->IsIn ? Graph.Writers[ChanId] : Graph.Readers[ChanId];
      for (const ChannelEnd &Peer : Peers)
        for (unsigned J = 0; J != N; ++J)
          if (Search.Parts[J] == Peer.Proc && J != I &&
              std::find(Edges[I].begin(), Edges[I].end(), J) ==
                  Edges[I].end())
            Edges[I].push_back(J);
    }
  }
  return Edges;
}

/// Follows wait-for edges from slot 0 until a slot repeats; returns the
/// cycle as a slot sequence (first == last), or empty if a process with
/// no outgoing edge is reached (it waits on a channel nobody serves).
std::vector<unsigned> findWaitCycle(
    const std::vector<std::vector<unsigned>> &Edges) {
  std::vector<unsigned> Path;
  std::vector<int> PosInPath(Edges.size(), -1);
  unsigned Cur = 0;
  while (true) {
    if (PosInPath[Cur] >= 0) {
      std::vector<unsigned> Cycle(Path.begin() + PosInPath[Cur], Path.end());
      Cycle.push_back(Cur);
      return Cycle;
    }
    PosInPath[Cur] = static_cast<int>(Path.size());
    Path.push_back(Cur);
    if (Edges[Cur].empty())
      return {};
    Cur = Edges[Cur].front();
  }
}

} // namespace

void esp::detail::checkDeadlock(const CommGraph &Graph,
                                const AnalysisOptions &Options,
                                AnalysisResult &Result) {
  // Only processes that communicate at all participate; a process with
  // no block point can never hold up a rendezvous.
  std::vector<unsigned> Parts;
  for (unsigned P = 0, N = Graph.Procs.size(); P != N; ++P)
    if (!Graph.Procs[P].States.empty())
      Parts.push_back(P);
  if (Parts.empty())
    return;

  DeadlockSearch Search(Graph, Parts, Options.MaxConfigs);

  // Seed with the cross product of every process's initial stop set.
  std::vector<Config> Seeds = {Config()};
  for (unsigned I = 0, N = Parts.size(); I != N; ++I) {
    std::vector<Config> Expanded;
    for (const Config &Partial : Seeds)
      for (unsigned Stop : Graph.Procs[Parts[I]].InitialStops) {
        Config Next = Partial;
        Next.push_back(Search.stopFromComm(I, Stop));
        Expanded.push_back(std::move(Next));
      }
    Seeds = std::move(Expanded);
    if (Seeds.size() > Options.MaxConfigs) {
      Result.DeadlockSearchIncomplete = true;
      return;
    }
  }
  for (Config &Seed : Seeds)
    Search.enqueue(std::move(Seed));

  std::vector<Config> Next;
  while (!Search.Queue.empty()) {
    Config C = std::move(Search.Queue.front());
    Search.Queue.pop_front();
    ++Search.Explored;

    Next.clear();
    bool AnyMove = Search.successors(C, Next);
    if (!AnyMove) {
      bool AllBlocked = true;
      for (unsigned I = 0, N = Parts.size(); I != N; ++I)
        AllBlocked &= !Search.isTerminal(C, I);
      // A configuration with terminated processes is quiescence, not a
      // wait cycle; espmc's deadlock check covers that case (§5).
      if (AllBlocked) {
        AnalysisFinding Finding;
        Finding.Kind = AnalysisKind::Deadlock;
        Finding.Severity = AnalysisSeverity::Error;

        std::string Names;
        for (unsigned I = 0, N = Parts.size(); I != N; ++I) {
          if (I)
            Names += ", ";
          Names += "'" + Graph.Procs[Parts[I]].IR->Proc->Name + "'";
        }
        Finding.Message =
            "possible deadlock: processes " + Names +
            " can all be blocked with no rendezvous able to fire";

        std::vector<std::vector<unsigned>> Edges =
            waitForEdges(Graph, Search, C);
        std::vector<unsigned> Cycle = findWaitCycle(Edges);
        std::string Chain;
        for (unsigned I = 0, N = Cycle.size(); I != N; ++I) {
          if (I)
            Chain += " -> ";
          Chain += Graph.Procs[Parts[Cycle[I]]].IR->Proc->Name;
        }

        for (unsigned I = 0, N = Parts.size(); I != N; ++I) {
          const ProcComm &PC = Graph.Procs[Parts[I]];
          const CommState &State = PC.States[C[I]];
          std::string Chans;
          for (const CommCase &Case : State.Cases) {
            if (Case.GuardFalse)
              continue;
            if (!Chans.empty())
              Chans += ", ";
            Chans += (Case.IR->IsIn ? "in " : "out ");
            Chans += "'" + Case.IR->Channel->Name + "'";
          }
          SourceLoc BlockLoc = PC.IR->Insts[State.InstIndex].Loc;
          if (!Finding.Loc.isValid())
            Finding.Loc = BlockLoc;
          Finding.Notes.push_back(
              {BlockLoc, "process '" + PC.IR->Proc->Name +
                             "' is blocked here on " + Chans});
        }
        if (!Chain.empty())
          Finding.Notes.insert(Finding.Notes.begin(),
                               {Finding.Loc, "wait cycle: " + Chain});
        Result.Findings.push_back(std::move(Finding));
        break; // One witness per program is enough.
      }
    }
    for (Config &N2 : Next)
      Search.enqueue(std::move(N2));
  }

  Result.ConfigsExplored += Search.Explored;
  Result.DeadlockSearchIncomplete |= Search.Incomplete;
}
