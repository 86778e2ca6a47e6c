//===--- test_vmmc.cpp - VMMC case study integration tests ------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vmmc/EspFirmware.h"
#include "vmmc/EspFirmwareSource.h"
#include "vmmc/OrigFirmware.h"
#include "vmmc/Workloads.h"

#include <gtest/gtest.h>

#include <array>

using namespace esp;
using namespace esp::vmmc;

namespace {

class VmmcAllFirmwares : public ::testing::TestWithParam<FirmwareKind> {};

INSTANTIATE_TEST_SUITE_P(
    Kinds, VmmcAllFirmwares,
    ::testing::Values(FirmwareKind::Esp, FirmwareKind::Orig,
                      FirmwareKind::OrigNoFastPaths),
    [](const ::testing::TestParamInfo<FirmwareKind> &Info) {
      return std::string(firmwareKindName(Info.param));
    });

TEST_P(VmmcAllFirmwares, SmallMessagePingpong) {
  WorkloadResult R = runPingpong(GetParam(), 4, /*Iterations=*/8);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.OneWayLatencyUs, 0.0);
  EXPECT_GT(R.FirmwareCyclesNode0, 0u);
}

TEST_P(VmmcAllFirmwares, MediumMessagePingpong) {
  WorkloadResult R = runPingpong(GetParam(), 1024, /*Iterations=*/8);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.OneWayLatencyUs, 0.0);
}

TEST_P(VmmcAllFirmwares, MultiPacketMessagePingpong) {
  // 16 KB = 4 MTU-sized packets per message.
  WorkloadResult R = runPingpong(GetParam(), 16384, /*Iterations=*/4);
  EXPECT_TRUE(R.Completed);
}

TEST_P(VmmcAllFirmwares, OneWayBandwidth) {
  WorkloadResult R = runOneWay(GetParam(), 4096, /*NumMessages=*/32);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.BandwidthMBs, 1.0);
}

TEST_P(VmmcAllFirmwares, BidirectionalBandwidth) {
  WorkloadResult R = runBidirectional(GetParam(), 4096, /*NumMessages=*/24);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.BandwidthMBs, 1.0);
}

TEST_P(VmmcAllFirmwares, RetransmissionRecoversFromLoss) {
  // Drop every 7th data packet; the sliding-window protocol must still
  // deliver everything (§5.3's protocol, exercised under loss).
  WorkloadResult R =
      runLossyPingpong(GetParam(), 256, /*Iterations=*/6, /*DropEveryN=*/7);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.MessagesDelivered, 12u);
}

TEST(VmmcShape, FastPathBeatsNoFastPathOnSmallMessages) {
  WorkloadResult Fast = runPingpong(FirmwareKind::Orig, 4, 16);
  WorkloadResult Slow = runPingpong(FirmwareKind::OrigNoFastPaths, 4, 16);
  ASSERT_TRUE(Fast.Completed && Slow.Completed);
  EXPECT_LT(Fast.OneWayLatencyUs, Slow.OneWayLatencyUs);
}

TEST(VmmcShape, EspSlowerThanOrigOnSmallMessages) {
  WorkloadResult Esp = runPingpong(FirmwareKind::Esp, 4, 16);
  WorkloadResult Orig = runPingpong(FirmwareKind::Orig, 4, 16);
  ASSERT_TRUE(Esp.Completed && Orig.Completed);
  // The paper: vmmcESP is around twice as slow as vmmcOrig for 4-byte
  // messages. Accept a broad band; the bench records the exact ratio.
  EXPECT_GT(Esp.OneWayLatencyUs, Orig.OneWayLatencyUs);
}

TEST(VmmcShape, CurvesConvergeAtLargeMessages) {
  WorkloadResult Esp = runOneWay(FirmwareKind::Esp, 65536, 16);
  WorkloadResult Orig = runOneWay(FirmwareKind::Orig, 65536, 16);
  ASSERT_TRUE(Esp.Completed && Orig.Completed);
  // Within ~20% of each other at 64 KB (the paper reports 14%).
  EXPECT_GT(Esp.BandwidthMBs, Orig.BandwidthMBs * 0.75);
}

TEST(VmmcShape, FastPathCounterMovesOnlyWithFastPaths) {
  auto Sim = makeTwoNodeSystem(FirmwareKind::Orig);
  auto *FW = static_cast<OrigFirmware *>(Sim->nic(0).firmware());
  sim::HostReq Req;
  Req.K = sim::HostReq::Kind::Send;
  Req.Dest = 1;
  Req.Size = 16;
  Req.Token = 1;
  unsigned Received = 0;
  Sim->nic(1).OnRecv = [&](const sim::RecvNotification &) { ++Received; };
  Sim->nic(0).postRequest(Req);
  Sim->runUntil([&] { return Received > 0; }, 1'000'000'000ULL);
  EXPECT_EQ(Received, 1u);
  EXPECT_EQ(FW->FastPathTaken, 1u);
  EXPECT_EQ(FW->SlowPathTaken, 0u);
}

TEST(VmmcUpdates, TranslationUpdatesAreApplied) {
  // Post an Update, then a Send whose translation uses it; delivery
  // proves the pageTable process handled the dispatched update (§4.2).
  auto Sim = makeTwoNodeSystem(FirmwareKind::Esp);
  sim::HostReq Upd;
  Upd.K = sim::HostReq::Kind::Update;
  Upd.VAddr = 0x10000;
  Upd.PAddr = 0x900000;
  Sim->nic(0).postRequest(Upd);
  unsigned Received = 0;
  Sim->nic(1).OnRecv = [&](const sim::RecvNotification &) { ++Received; };
  sim::HostReq Req;
  Req.K = sim::HostReq::Kind::Send;
  Req.Dest = 1;
  Req.VAddr = 0x10000;
  Req.Size = 2048;
  Req.Token = 7;
  Sim->nic(0).postRequest(Req);
  bool Done = Sim->runUntil([&] { return Received > 0; }, 1'000'000'000ULL);
  EXPECT_TRUE(Done);
}

TEST(VmmcLoc, EspSourceLineCountsMatchPaperScale) {
  // The paper: ~200 lines of declarations + ~300 lines of process code.
  unsigned Decl = getVmmcEspDeclLines();
  unsigned Proc = getVmmcEspProcessLines();
  EXPECT_GT(Decl, 30u);
  EXPECT_GT(Proc, 80u);
  EXPECT_LT(Decl + Proc, 600u);
}

/// The ESP firmware, handing its machine's final ExecStats to \p Out.
class StatsKeepingFirmware : public EspFirmware {
public:
  explicit StatsKeepingFirmware(ExecStats &Out) : Out(Out) {}
  ~StatsKeepingFirmware() override { Out = machine().stats(); }

private:
  ExecStats &Out;
};

std::array<uint64_t, 7> statsFields(const ExecStats &S) {
  return {S.Instructions,       S.ContextSwitches,  S.Rendezvous,
          S.ExternalDeliveries, S.ExternalConsumes, S.PollRounds,
          S.PatternMatchesTried};
}

TEST(VmmcExecStats, PingpongCountsArePinned) {
  // Every ExecStats field of both NICs' machines after a Figure 5(a)
  // pingpong of 16 round trips (plus warmup). The simulator charges
  // firmware cycles from these counts, so any drift moves simulated time.
  struct Golden {
    uint32_t Bytes;
    std::array<uint64_t, 7> Node[2];
  };
  static const Golden Goldens[] = {
      {4,
       {{2536, 220, 181, 61, 60, 122, 1922},
        {2494, 218, 179, 60, 60, 119, 1894}}},
      {4096,
       {{3032, 244, 232, 112, 120, 224, 2144},
        {3032, 242, 232, 112, 120, 224, 2144}}},
  };
  for (const Golden &G : Goldens) {
    ExecStats Got[2];
    unsigned Node = 0;
    WorkloadResult R = runPingpongWith(
        [&] { return std::make_unique<StatsKeepingFirmware>(Got[Node++]); },
        G.Bytes, /*Iterations=*/16);
    ASSERT_TRUE(R.Completed);
    ASSERT_EQ(Node, 2u);
    for (unsigned N = 0; N != 2; ++N)
      EXPECT_EQ(statsFields(Got[N]), G.Node[N])
          << G.Bytes << " B, node " << N;
  }
}

} // namespace
