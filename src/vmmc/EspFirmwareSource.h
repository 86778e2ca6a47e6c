//===--- EspFirmwareSource.h - VMMC firmware written in ESP -----*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VMMC firmware written in ESP (§4.6, Appendix B), covering the
/// send path (request handling, address translation, host-DMA fetch,
/// small-message special case, page/MTU splitting), the sliding-window
/// retransmission protocol with piggybacked acknowledgements (§5.3), the
/// receive path (demultiplexing, in-order reassembly, host-DMA delivery,
/// completion notification), and buffer recycling. All device access
/// goes through external interfaces (§4.5); the C++ side implements only
/// the simple operations (DMA programming, packet I/O, buffer lists),
/// mirroring the paper's split where the C code does the simple work and
/// all complex state-machine interaction lives in ESP.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_VMMC_ESPFIRMWARESOURCE_H
#define ESP_VMMC_ESPFIRMWARESOURCE_H

namespace esp {
namespace vmmc {

/// The complete VMMC firmware in ESP: the bytes of src/vmmc/vmmc.esp,
/// compiled in by esp_embed_source (cmake/EspEmbed.cmake).
const char *getVmmcEspSource();

/// Effective lines (countEffectiveLines) of the firmware's declaration
/// and process sections, split at its `// ---- process section` line,
/// for the lines-of-code table (§4.6).
unsigned getVmmcEspDeclLines();
unsigned getVmmcEspProcessLines();

} // namespace vmmc
} // namespace esp

#endif // ESP_VMMC_ESPFIRMWARESOURCE_H
