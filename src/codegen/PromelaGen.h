//===--- PromelaGen.h - ESP to Promela (SPIN) backend -----------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPIN backend (§5.2). The translation happens right after type
/// checking (before any optimization), exactly as the paper chooses:
/// the SPIN specification language has no pointers or dynamic
/// allocation, so
///
///  * every aggregate type becomes a fixed-size *pool* (an array of
///    typedef'd cells) plus a reference-count array; values of the type
///    are integer objectIds indexing the pool — this reproduces the
///    paper's objectId scheme, and makes mutable aliasing work because
///    two aliases hold the same id,
///  * `link`/`unlink` become macros that manipulate the refcount arrays
///    with embedded assertions (use-after-free traps), and allocation
///    asserts that a free slot exists (a leak exhausts the pool, §5.2),
///  * arrays get a per-type fixed maximum length,
///  * channel messages are flattened into scalar fields so that receive
///    statements can use constant matching for dispatch (union arms
///    become a leading tag field),
///  * the whole program can be instantiated N times (the paper runs
///    multiple copies of the firmware to model multiple machines).
///
/// SPIN itself is not bundled with this repository; the generated
/// specification documents the translation scheme and is validated
/// structurally by the test suite, while the equivalent state-space
/// exploration is performed natively by src/mc.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_CODEGEN_PROMELAGEN_H
#define ESP_CODEGEN_PROMELAGEN_H

#include "frontend/AST.h"

#include <string>

namespace esp {

struct PromelaGenOptions {
  /// Pool size per aggregate type (the paper's fixed refcount table).
  unsigned MaxObjects = 8;
  /// Number of instances of the whole program to declare.
  unsigned Instances = 1;
};

/// Translates a checked program to a Promela specification.
std::string generatePromela(const Program &Prog,
                            const PromelaGenOptions &Options =
                                PromelaGenOptions());

} // namespace esp

#endif // ESP_CODEGEN_PROMELAGEN_H
