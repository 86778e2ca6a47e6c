//===--- CCodeGen.h - ESP to C compiler backend -----------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C backend (§6.1). The whole ESP program is compiled into one C
/// translation unit:
///
///  * processes are stackless: locals live in the static region; a
///    context switch saves only the program counter (a label index),
///  * every communication point compiles to specialized pairing code —
///    the compiler sees all processes and channels, so each block point
///    checks exactly the peers that can ever match (the paper's bitmask
///    scheme compiles to these static enabled-mask tests),
///  * message transfer increments reference counts instead of copying,
///  * allocation is postponed past the rendezvous for lazy out cases and
///    elided entirely for elidable record sends,
///  * external interfaces become the paper's C function pairs:
///    `<Iface>IsReady()` plus one function per interface case,
///  * an idle loop polls external channels and drives the stack-based
///    non-preemptive scheduler. A case function consumes its message, so
///    the loop asks an external writer only while some reader waits on
///    its channel; a message that no waiting reader's pattern accepts is
///    dropped, where the Machine leaves it with the writer.
///
/// The C keeps four counters, read through `esp_stat_*()`: allocations,
/// live objects, rendezvous and context switches. The last two count
/// what the Machine's ExecStats count: a rendezvous is a transfer between
/// two processes or from an external writer to a process (a hand-off to
/// an external reader is none), and a context switch is a step that runs
/// another process than the step before. Instructions and poll rounds,
/// which the cost model also charges, are not counted.
///
/// The generated file compiles standalone with any C99 compiler;
/// scripts/check.sh builds it with -Wall -Wextra -Werror, and the test
/// suite compiles and runs it with the system `cc`.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_CODEGEN_CCODEGEN_H
#define ESP_CODEGEN_CCODEGEN_H

#include "ir/IR.h"

#include <string>

namespace esp {

struct CCodeGenOptions {
  /// Emit live-object assertions before each access (mirrors the checks
  /// the verifier inserts; off by default — the paper's firmware relies
  /// on pre-verification instead of runtime checks).
  bool EmitSafetyChecks = false;
};

/// Compiles \p Module to a single C translation unit. The module should
/// be optimized (the backend honors LazyOut/ElideRecordAlloc flags).
std::string generateC(const ModuleIR &Module,
                      const CCodeGenOptions &Options = CCodeGenOptions());

/// Generates the companion header: the entry points and counters
/// generateC defines, and the extern functions the user must supply for
/// the external interfaces (`<Iface>IsReady()` and one function per
/// interface case), declared as the C file declares them.
std::string generateCHeader(const ModuleIR &Module);

} // namespace esp

#endif // ESP_CODEGEN_CCODEGEN_H
