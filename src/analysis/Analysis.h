//===--- Analysis.h - Whole-program static analysis (esplint) ---*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The esplint static analyzers: compile-time detection of a useful
/// subset of the defects the paper finds with SPIN (§5), with no test
/// harness at all. Four cooperating whole-program passes run over the
/// instantiated AST and the state-machine IR, and all four share one
/// communication skeleton (CommGraph), built once per analysis:
///
///  * deadlock: a reachability search over the product of the per-process
///    communication skeletons that reports configurations in which every
///    process is blocked and no rendezvous can fire, with a witness
///    wait-for cycle,
///  * link balance: a forward dataflow over each process's IR that flags
///    objects that are never unlinked (static leak, the compile-time
///    analogue of the paper's objectId-table exhaustion check, §5.2) and
///    unlinks of already-released objects (refcount underflow),
///  * reachability: states that can never execute or never receive,
///    alt cases with statically-false guards, and channels whose only
///    readers or writers are unreachable,
///  * interference: channels whose send and receive ends all sit in one
///    process (self-rendezvous), and on request the conflict classes of
///    the communication sites that `espmc --por` reduces over.
///
/// Severities are calibrated so that an *error* is only reported when the
/// defect holds on every abstract path (see docs/analysis.md for each
/// detector's soundness/completeness caveats); uncertain findings are
/// warnings. esplint's exit code counts errors only.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_ANALYSIS_ANALYSIS_H
#define ESP_ANALYSIS_ANALYSIS_H

#include "ir/IR.h"
#include "obs/Json.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace esp {

class DiagnosticEngine;
class SourceManager;
struct CommGraph;

enum class AnalysisKind : uint8_t {
  Deadlock,
  LinkBalance,
  Reachability,
  Interference,
};

/// Returns the stable detector name ("deadlock", "link-balance",
/// "reachability", "interference") used in text and JSON output.
const char *analysisKindName(AnalysisKind Kind);

enum class AnalysisSeverity : uint8_t { Note, Warning, Error };

const char *analysisSeverityName(AnalysisSeverity Severity);

/// One finding with optional attached notes (witness steps, related
/// locations).
struct AnalysisFinding {
  AnalysisKind Kind = AnalysisKind::Reachability;
  AnalysisSeverity Severity = AnalysisSeverity::Warning;
  SourceLoc Loc;
  std::string Message;
  struct Note {
    SourceLoc Loc;
    std::string Message;
  };
  std::vector<Note> Notes;
};

struct AnalysisOptions {
  bool CheckDeadlock = true;
  bool CheckLinkBalance = true;
  bool CheckReachability = true;
  /// Interference warnings (self-rendezvous channels).
  bool CheckInterference = true;
  /// Also emit the note-severity conflict-class report (the
  /// `esplint --interference` mode: sites, conflict matrix summary,
  /// % statically-commuting pairs).
  bool ReportInterference = false;
  /// Cap on product configurations the deadlock search explores; beyond
  /// it the search stops and the result is marked incomplete.
  uint64_t MaxConfigs = 1u << 20;
};

struct AnalysisResult {
  std::vector<AnalysisFinding> Findings;
  /// The deadlock search hit MaxConfigs; absence of a deadlock finding
  /// is then inconclusive.
  bool DeadlockSearchIncomplete = false;
  /// Product configurations the deadlock search explored.
  uint64_t ConfigsExplored = 0;

  unsigned numErrors() const;
  unsigned numWarnings() const;
};

/// Runs the selected analyses. \p Module must be the *unoptimized*
/// lowering of \p Prog (the same convention the model checker uses,
/// §5.2), and \p Prog must have passed checkProgram.
AnalysisResult analyzeProgram(const Program &Prog, const ModuleIR &Module,
                              const AnalysisOptions &Options = {});

/// Forwards every finding to \p Diags (notes follow their finding).
/// When \p DemoteErrors is set, errors are reported as warnings — the
/// `espc -Wanalysis` mode.
void reportFindings(const AnalysisResult &Result, DiagnosticEngine &Diags,
                    bool DemoteErrors = false);

/// Renders the findings as "file:line:col: severity: [detector] message"
/// lines, one per finding/note.
std::string renderFindingsText(const AnalysisResult &Result,
                               const SourceManager &SM);

/// Renders the findings as a JSON document (stable detector and severity
/// names; locations decoded to file/line/column).
obs::JsonValue renderFindingsJson(const AnalysisResult &Result,
                                  const SourceManager &SM);

namespace detail {

/// The individual passes, run by analyzeProgram. Each appends to
/// \p Result.Findings.
void checkDeadlock(const CommGraph &Graph, const AnalysisOptions &Options,
                   AnalysisResult &Result);
void checkLinkBalance(const CommGraph &Graph, AnalysisResult &Result);
void checkReachability(const Program &Prog, const CommGraph &Graph,
                       AnalysisResult &Result);
void checkInterference(const CommGraph &Graph, const AnalysisOptions &Options,
                       AnalysisResult &Result);

} // namespace detail
} // namespace esp

#endif // ESP_ANALYSIS_ANALYSIS_H
