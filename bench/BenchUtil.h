//===--- BenchUtil.h - Shared benchmark table helpers -----------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table formatting and the BENCH_*.json writer shared by the
/// experiment-reproduction benches. Every bench prints the series of one
/// paper table or figure; EXPERIMENTS.md records these outputs against
/// the paper's reported values.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_BENCH_BENCHUTIL_H
#define ESP_BENCH_BENCHUTIL_H

#include "obs/Json.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace esp {
namespace bench {

inline void printHeader(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

inline std::string sizeLabel(uint32_t Bytes) {
  char Buf[32];
  if (Bytes >= 1024 && Bytes % 1024 == 0)
    std::snprintf(Buf, sizeof Buf, "%uK", Bytes / 1024);
  else
    std::snprintf(Buf, sizeof Buf, "%u", Bytes);
  return Buf;
}

/// The message-size sweep of Figure 5(a): 4 B to 4 KB.
inline std::vector<uint32_t> latencySizes() {
  return {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
}

/// The message-size sweep of Figures 5(b) and 5(c): 4 B to 64 KB.
inline std::vector<uint32_t> bandwidthSizes() {
  return {4,    8,    16,   32,   64,    128,   256,  512,
          1024, 2048, 4096, 8192, 16384, 32768, 65536};
}

/// \p V rounded to \p Digits decimals, as printf's "%.<Digits>f" prints
/// it, so a row keeps its table precision in the shortest JSON form.
inline obs::JsonValue jsonFixed(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.*f", Digits, V);
  return obs::JsonValue::number(std::strtod(Buf, nullptr));
}

inline obs::JsonValue jsonCount(uint64_t N) {
  return obs::JsonValue::integer(static_cast<int64_t>(N));
}

/// The "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name\t: ", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

/// Writes \p Path as {"bench", "quick", "host", "rows"}: the envelope
/// every BENCH_*.json shares, with the host and build that produced it.
inline void writeBenchJson(const std::string &Path, const std::string &Bench,
                           bool Quick, obs::JsonValue Rows) {
  using obs::JsonValue;
  JsonValue Host = JsonValue::object();
  Host.set("nproc", JsonValue::integer(std::thread::hardware_concurrency()));
  Host.set("cpu_model", JsonValue::str(cpuModel()));
#if defined(__clang__)
  Host.set("compiler", JsonValue::str(__VERSION__)); // "Clang x.y.z ..."
#else
  Host.set("compiler", JsonValue::str("gcc " __VERSION__));
#endif
  Host.set("build_type", JsonValue::str(ESP_BENCH_BUILD_TYPE));
  JsonValue Doc = JsonValue::object();
  Doc.set("bench", JsonValue::str(Bench));
  Doc.set("quick", JsonValue::boolean(Quick));
  Doc.set("host", std::move(Host));
  size_t N = Rows.size();
  Doc.set("rows", std::move(Rows));
  std::ofstream Out(Path);
  Out << Doc.dump(2) << "\n";
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  std::printf("\nwrote %s (%zu rows)\n", Path.c_str(), N);
}

} // namespace bench
} // namespace esp

#endif // ESP_BENCH_BENCHUTIL_H
