//===--- PatternAnalysis.h - Channel pattern dispatch checks ----*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static checks for ESP's pattern-dispatch rules (§4.2): all the patterns
/// used to receive on a channel must be pairwise disjoint across readers,
/// and each pattern may be used by only one process — a channel plus a
/// pattern defines a *port* with a single reader. The analysis also warns
/// when the pattern set is not statically exhaustive (a message matching
/// no pattern is then a runtime/verifier-detected error) and when a
/// channel has no reader or no writer at all.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_PATTERNANALYSIS_H
#define ESP_FRONTEND_PATTERNANALYSIS_H

#include "frontend/AST.h"

#include <cstdint>
#include <vector>

namespace esp {

class DiagnosticEngine;

/// An abstract pattern used for disjointness/exhaustiveness reasoning.
/// Expression leaves that can be evaluated statically (literals, consts,
/// `@`) become Const; others become Unknown.
struct AbsPattern {
  enum Kind : uint8_t { Any, Const, Unknown, Record, Union } K = Any;
  int64_t Value = 0; ///< For Const.
  int Arm = -1;      ///< For Union.
  std::vector<AbsPattern> Kids;

  static AbsPattern fromPattern(const Pattern *P, const ProcessDecl *Proc);

  /// Three-valued overlap test between two abstract patterns.
  enum class Overlap { Disjoint, Overlapping, Unknown };
  static Overlap overlap(const AbsPattern &A, const AbsPattern &B);

  /// True if this pattern alone matches every value of its type.
  bool coversAll() const;
};

/// One reader of a channel: a process `in` pattern or an external-reader
/// interface case.
struct ChannelReader {
  const Pattern *Pat = nullptr;
  AbsPattern Abs;
  /// Owner key: process id, or (1<<16)+case index for interface cases.
  unsigned Owner = 0;
  std::string OwnerName;
  SourceLoc Loc;
};

/// Runs the pattern-dispatch checks over the whole program. Returns true
/// when no errors were found (warnings do not fail the check).
bool checkChannelPatterns(Program &Prog, DiagnosticEngine &Diags);

/// Collects the readers of channel \p Chan across the program (exposed
/// for the backends, which build their dispatch tables from it).
std::vector<ChannelReader> collectChannelReaders(const Program &Prog,
                                                 const ChannelDecl *Chan);

/// Are the reader patterns of \p Chan pairwise provably disjoint? On such
/// a channel dispatch stops at the first match and AmbiguousDispatch can
/// never be raised (the runtime's ChannelInfo::Disjoint flag, and why the
/// channel creates no visibility clique in CommGraph).
bool channelReadersDisjoint(const Program &Prog, const ChannelDecl *Chan);

} // namespace esp

#endif // ESP_FRONTEND_PATTERNANALYSIS_H
