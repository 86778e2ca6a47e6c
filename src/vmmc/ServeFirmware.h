//===--- ServeFirmware.h - Per-connection VMMC firmware in ESP --*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-instance VMMC serving firmware: a trimmed-down VMMC send
/// path — request intake, page-table translation, MTU fragmentation,
/// transmit accounting — written in ESP, one independent machine
/// instance per simulated client connection. The fleet serving runtime
/// (src/serve) runs thousands of these over one shared CompiledProgram;
/// each instance gets its own Heap and channel state.
///
/// Unlike the full firmware (vmmc.esp), which binds to the
/// cycle-accurate NIC simulator, this one has exactly two external
/// interfaces so the serving boundary stays epoll-shaped:
///
///  * `Req` (external writer): the load generator's requests enter here,
///    delivered from a per-machine ExternalPort inbox;
///  * `Resp` (external reader): one completion record per request leaves
///    here, closing the latency measurement.
///
/// The response is a pure function of the request — frags is the MTU
/// fragment count, bytes echoes the size, sum is a translation checksum
/// over the fragment addresses — so aggregate totals are deterministic
/// at any worker count and the load generator can predict them without
/// running a machine (LoadGen::expectedTotals).
///
//===----------------------------------------------------------------------===//

#ifndef ESP_VMMC_SERVEFIRMWARE_H
#define ESP_VMMC_SERVEFIRMWARE_H

#include "ir/IR.h"

#include <cstdint>
#include <memory>
#include <string>

namespace esp {

class Program;
class SourceManager;
class DiagnosticEngine;

namespace vmmc {

/// Fragment size of the serve firmware; responses report
/// ceil(size / kServeMtu) fragments. Must match the MTU constant in
/// serve.esp.
inline constexpr uint32_t kServeMtu = 4096;
inline constexpr uint32_t kServePageSize = 4096;
inline constexpr uint32_t kServePtSize = 16;

/// The per-connection serving firmware in ESP: the bytes of
/// src/vmmc/serve.esp, compiled in by esp_embed_source
/// (cmake/EspEmbed.cmake).
const char *getServeEspSource();

/// The response record the firmware emits for a request (seq, vAddr,
/// size), mirrored in C++ so the load generator and the tests can
/// predict aggregate totals without running a machine. The firmware's
/// page table memoizes translations but the memoized value depends only
/// on the virtual address — never on lookup order or on when a serve
/// slot recycled the machine — so the model is a pure function.
struct ServeResponseModel {
  uint64_t Seq = 0;
  uint64_t Frags = 0;
  uint64_t Bytes = 0;
  uint64_t Sum = 0;
};

ServeResponseModel serveResponseModel(uint64_t Seq, uint32_t VAddr,
                                      uint32_t Size);

/// Order-independent digest of a response; summed over all responses it
/// is the aggregate checksum espserve verifies and the tests pin.
uint64_t serveResponseDigest(uint64_t Seq, uint64_t Frags, uint64_t Bytes,
                             uint64_t Sum);

/// Compiled serve firmware: AST + optimized ModuleIR, ready for
/// Machine construction. Aborts on compile failure (the source is a
/// builtin; failure is a build bug, like EspFirmware's).
struct ServeProgram {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Program> Prog;
  ModuleIR Module;

  ServeProgram();
  ~ServeProgram(); // Out of line: members are incomplete here.
};

std::unique_ptr<ServeProgram> compileServeFirmware();

} // namespace vmmc
} // namespace esp

#endif // ESP_VMMC_SERVEFIRMWARE_H
