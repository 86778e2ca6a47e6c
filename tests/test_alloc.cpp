//===--- test_alloc.cpp - Steady-state allocation guard ----------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Counts calls to the global operator new, and the bytes they ask for,
// which this file replaces; that is why it builds into an executable of
// its own. A Figure 5(a) pingpong of vmmcESP must stay close to
// allocation-free per round trip: the execution-mode Machine reuses its
// value buffers and per-case caches, and the event queue moves events out
// instead of copying their callbacks. And one execution-mode machine must
// stay small, since a fleet holds ten thousand of them.
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"
#include "vmmc/ServeFirmware.h"
#include "vmmc/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumNews{0};
std::atomic<uint64_t> NumBytes{0};
} // namespace

void *operator new(std::size_t Size) {
  NumNews.fetch_add(1, std::memory_order_relaxed);
  NumBytes.fetch_add(Size, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// Out of line: inlined into a new-expression's cleanup, free() would
// trip -Wmismatched-new-delete against the replaceable operator new.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

using namespace esp::vmmc;

uint64_t newsForPingpong(uint32_t Bytes, unsigned RoundTrips) {
  uint64_t Before = NumNews.load();
  WorkloadResult R = runPingpong(FirmwareKind::Esp, Bytes, RoundTrips);
  EXPECT_TRUE(R.Completed);
  return NumNews.load() - Before;
}

/// operator new calls per round trip once the system is warm: two runs
/// that differ only in their round-trip count, so firmware compilation
/// and simulator setup cancel out. A first run warms up static caches.
double newsPerRoundTrip(uint32_t Bytes) {
  constexpr unsigned Short = 100, Long = 1100;
  newsForPingpong(Bytes, 8);
  uint64_t A = newsForPingpong(Bytes, Short);
  uint64_t B = newsForPingpong(Bytes, Long);
  return static_cast<double>(B - A) / (Long - Short);
}

// Measured 6.889 at 4 B and 7.034 at 4 KB (gcc 12, libstdc++), all of
// them the simulator's std::function events and deque nodes.
TEST(AllocGuard, PingpongRoundTrip4B) {
  EXPECT_LE(newsPerRoundTrip(4), 6.9);
}

TEST(AllocGuard, PingpongRoundTrip4KB) {
  EXPECT_LE(newsPerRoundTrip(4096), 7.1);
}

// Bytes operator new hands out while one serve-firmware machine is built
// over the fleet's shared compiled program and started: the per-slot cost
// of espserve, bindings aside. Measured 2,062 with a std::deque ready
// queue and a growable operand stack, 1,462 with a ring queue that
// allocates on first push and a stack sized once (gcc 12, libstdc++).
TEST(AllocGuard, ServeMachineFootprint) {
  std::unique_ptr<ServeProgram> Firmware = compileServeFirmware();
  std::shared_ptr<const esp::CompiledProgram> Compiled =
      esp::Machine::compileProgram(Firmware->Module);
  uint64_t Before = NumBytes.load();
  {
    esp::Machine M(Firmware->Module, esp::MachineOptions(), Compiled);
    M.start();
    ASSERT_FALSE(M.error()) << M.error().Message;
    uint64_t Bytes = NumBytes.load() - Before;
    EXPECT_LE(Bytes, 1462u);
  }
}

} // namespace
