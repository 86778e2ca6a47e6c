//===--- Instantiate.h - Multi-copy program instantiation --------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §5.2: "The ESP compiler generates SPIN specification that can
/// instantiate multiple copies of the ESP program... allows one to mimic
/// a setup where the firmware on multiple machines are communicating
/// with each other."
///
/// This reproduction instantiates at the source level: every top-level
/// name (types, consts, channels, interfaces, processes) of the program
/// is prefixed per instance, the copies are concatenated, and —
/// optionally — the external interfaces are stripped so that a
/// user-written harness (the test.SPIN analogue) can drive each
/// instance's device channels and model the network between them. The
/// result is one closed ESP program that the native model checker
/// explores directly.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_INSTANTIATE_H
#define ESP_FRONTEND_INSTANTIATE_H

#include <string>
#include <vector>

namespace esp {

struct InstantiateOptions {
  /// Number of program copies.
  unsigned Instances = 2;
  /// Drop `interface` declarations so the per-instance device channels
  /// become internal and harness processes can read/write them.
  bool StripInterfaces = true;
};

/// Returns the instantiated source: N renamed copies of \p Source
/// concatenated (plus \p Harness verbatim at the end). Instance I's
/// top-level names get the prefix "m<I>_". Purely textual / token-level;
/// the result is parsed and checked like any program.
std::string instantiateProgram(const std::string &Source,
                               const InstantiateOptions &Options,
                               const std::string &Harness = "");

} // namespace esp

#endif // ESP_FRONTEND_INSTANTIATE_H
