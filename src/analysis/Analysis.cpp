//===--- Analysis.cpp - Analysis driver, reporting, rendering --------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "analysis/CommGraph.h"

#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <algorithm>
#include <sstream>

using namespace esp;

const char *esp::analysisKindName(AnalysisKind Kind) {
  switch (Kind) {
  case AnalysisKind::Deadlock:
    return "deadlock";
  case AnalysisKind::LinkBalance:
    return "link-balance";
  case AnalysisKind::Reachability:
    return "reachability";
  case AnalysisKind::Interference:
    return "interference";
  }
  return "unknown";
}

const char *esp::analysisSeverityName(AnalysisSeverity Severity) {
  switch (Severity) {
  case AnalysisSeverity::Note:
    return "note";
  case AnalysisSeverity::Warning:
    return "warning";
  case AnalysisSeverity::Error:
    return "error";
  }
  return "unknown";
}

unsigned AnalysisResult::numErrors() const {
  unsigned N = 0;
  for (const AnalysisFinding &F : Findings)
    N += F.Severity == AnalysisSeverity::Error;
  return N;
}

unsigned AnalysisResult::numWarnings() const {
  unsigned N = 0;
  for (const AnalysisFinding &F : Findings)
    N += F.Severity == AnalysisSeverity::Warning;
  return N;
}

AnalysisResult esp::analyzeProgram(const Program &Prog, const ModuleIR &Module,
                                   const AnalysisOptions &Options) {
  AnalysisResult Result;
  CommGraph Graph = CommGraph::build(Module);
  if (Options.CheckDeadlock)
    detail::checkDeadlock(Graph, Options, Result);
  if (Options.CheckLinkBalance)
    detail::checkLinkBalance(Prog, Module, Result);
  if (Options.CheckReachability)
    detail::checkReachability(Prog, Graph, Result);
  if (Options.CheckInterference || Options.ReportInterference)
    detail::checkInterference(Graph, Options, Result);

  // Deterministic presentation order: by location, then severity (errors
  // first), keeping the per-detector insertion order as the tiebreak.
  std::stable_sort(Result.Findings.begin(), Result.Findings.end(),
                   [](const AnalysisFinding &A, const AnalysisFinding &B) {
                     if (A.Loc.getFileId() != B.Loc.getFileId())
                       return A.Loc.getFileId() < B.Loc.getFileId();
                     if (A.Loc.getOffset() != B.Loc.getOffset())
                       return A.Loc.getOffset() < B.Loc.getOffset();
                     return static_cast<int>(A.Severity) >
                            static_cast<int>(B.Severity);
                   });
  return Result;
}

void esp::reportFindings(const AnalysisResult &Result, DiagnosticEngine &Diags,
                         bool DemoteErrors) {
  for (const AnalysisFinding &F : Result.Findings) {
    std::string Message = "[";
    Message += analysisKindName(F.Kind);
    Message += "] ";
    Message += F.Message;
    AnalysisSeverity Severity = F.Severity;
    if (DemoteErrors && Severity == AnalysisSeverity::Error)
      Severity = AnalysisSeverity::Warning;
    switch (Severity) {
    case AnalysisSeverity::Error:
      Diags.error(F.Loc, Message);
      break;
    case AnalysisSeverity::Warning:
      Diags.warning(F.Loc, Message);
      break;
    case AnalysisSeverity::Note:
      Diags.note(F.Loc, Message);
      break;
    }
    for (const AnalysisFinding::Note &N : F.Notes)
      Diags.note(N.Loc, N.Message);
  }
}

namespace {

void renderLoc(const SourceManager &SM, SourceLoc Loc, std::ostream &OS) {
  DecodedLoc D = SM.decode(Loc);
  OS << D.FileName << ":" << D.Line << ":" << D.Column;
}

obs::JsonValue jsonLoc(const SourceManager &SM, SourceLoc Loc) {
  DecodedLoc D = SM.decode(Loc);
  obs::JsonValue V = obs::JsonValue::object();
  V.set("file", obs::JsonValue::str(std::string(D.FileName)));
  V.set("line", obs::JsonValue::integer(D.Line));
  V.set("column", obs::JsonValue::integer(D.Column));
  return V;
}

} // namespace

std::string esp::renderFindingsText(const AnalysisResult &Result,
                                    const SourceManager &SM) {
  std::ostringstream OS;
  for (const AnalysisFinding &F : Result.Findings) {
    renderLoc(SM, F.Loc, OS);
    OS << ": " << analysisSeverityName(F.Severity) << ": ["
       << analysisKindName(F.Kind) << "] " << F.Message << "\n";
    for (const AnalysisFinding::Note &N : F.Notes) {
      if (N.Loc.isValid()) {
        OS << "  ";
        renderLoc(SM, N.Loc, OS);
        OS << ": ";
      } else {
        OS << "  ";
      }
      OS << "note: " << N.Message << "\n";
    }
  }
  if (Result.DeadlockSearchIncomplete)
    OS << "note: [deadlock] state search hit the configuration limit; "
          "deadlock results are incomplete\n";
  return OS.str();
}

obs::JsonValue esp::renderFindingsJson(const AnalysisResult &Result,
                                       const SourceManager &SM) {
  using obs::JsonValue;
  JsonValue Findings = JsonValue::array();
  for (const AnalysisFinding &F : Result.Findings) {
    JsonValue Notes = JsonValue::array();
    for (const AnalysisFinding::Note &N : F.Notes) {
      JsonValue Note = JsonValue::object();
      Note.set("location", jsonLoc(SM, N.Loc));
      Note.set("message", JsonValue::str(N.Message));
      Notes.push(std::move(Note));
    }
    JsonValue V = JsonValue::object();
    V.set("detector", JsonValue::str(analysisKindName(F.Kind)));
    V.set("severity", JsonValue::str(analysisSeverityName(F.Severity)));
    V.set("location", jsonLoc(SM, F.Loc));
    V.set("message", JsonValue::str(F.Message));
    V.set("notes", std::move(Notes));
    Findings.push(std::move(V));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("errors", JsonValue::integer(Result.numErrors()));
  Doc.set("warnings", JsonValue::integer(Result.numWarnings()));
  Doc.set("deadlockSearchIncomplete",
          JsonValue::boolean(Result.DeadlockSearchIncomplete));
  Doc.set("findings", std::move(Findings));
  return Doc;
}
