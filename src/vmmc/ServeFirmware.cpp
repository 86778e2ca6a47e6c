//===--- ServeFirmware.cpp - Per-connection VMMC firmware in ESP ------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vmmc/ServeFirmware.h"

#include "driver/Driver.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <cstdlib>

using namespace esp;
using namespace esp::vmmc;

ServeProgram::ServeProgram() = default;
ServeProgram::~ServeProgram() = default;

ServeResponseModel esp::vmmc::serveResponseModel(uint64_t Seq, uint32_t VAddr,
                                                 uint32_t Size) {
  ServeResponseModel R;
  R.Seq = Seq;
  uint64_t Remaining = Size;
  uint64_t Off = 0;
  while (Remaining > 0) {
    uint64_t Chunk = Remaining > kServeMtu ? kServeMtu : Remaining;
    uint64_t Va = VAddr + Off;
    uint64_t Idx = (Va / kServePageSize) % kServePtSize;
    uint64_t PAddr = (Idx + 1) * kServePageSize + Va % kServePageSize;
    ++R.Frags;
    R.Bytes += Chunk;
    R.Sum += PAddr % 1048576;
    Remaining -= Chunk;
    Off += Chunk;
  }
  return R;
}

uint64_t esp::vmmc::serveResponseDigest(uint64_t Seq, uint64_t Frags,
                                        uint64_t Bytes, uint64_t Sum) {
  // splitmix64 finalizer over the packed fields; summed across responses
  // the digest is order-independent, so it is identical at any worker
  // count once every request completed.
  uint64_t X = Seq * 0x9e3779b97f4a7c15ULL + (Frags << 48) + (Bytes << 20) +
               Sum + 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

std::unique_ptr<ServeProgram> esp::vmmc::compileServeFirmware() {
  auto P = std::make_unique<ServeProgram>();
  P->SM = std::make_unique<SourceManager>();
  P->Diags = std::make_unique<DiagnosticEngine>(*P->SM);
  CompileOptions Options;
  Options.Optimize = true;
  CompileResult R = compileBuffer(*P->SM, *P->Diags, "vmmc_serve.esp",
                                  getServeEspSource(), Options);
  if (!R.Success) {
    std::fprintf(stderr, "VMMC serve firmware failed to compile:\n%s",
                 P->Diags->renderAll().c_str());
    std::abort();
  }
  P->Prog = std::move(R.Prog);
  P->Module = std::move(R.Optimized);
  return P;
}
