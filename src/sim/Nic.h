//===--- Nic.h - Simulated Myrinet network interface card -------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated Myrinet NIC (§2.1): a firmware CPU (33 MHz LANai), SRAM
/// packet buffers, a host DMA engine, a send DMA engine (the receive DMA
/// is folded into packet delivery timing), a watchdog timer, and queues
/// connecting it to the host library and the wire. The firmware is
/// pluggable: the ESP firmware runs the actual ESP program on the
/// interpreter; the baseline firmware runs C-style event-driven state
/// machines. Both see the same NicEnv.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SIM_NIC_H
#define ESP_SIM_NIC_H

#include "sim/CostModel.h"
#include "sim/EventSim.h"
#include "sim/Protocol.h"

#include <deque>
#include <functional>
#include <memory>
#include <vector>

namespace esp {
namespace sim {

class Nic;
class Simulator;

/// The environment a firmware quantum runs against. All interaction with
/// the device happens here, and every data-path action charges the same
/// cycle costs for every firmware implementation.
class NicEnv {
public:
  explicit NicEnv(Nic &N) : Device(N) {}

  //===--- Time ---------------------------------------------------------------===//

  const CostModel &costs() const;
  void charge(uint64_t Cycles) { ChargedCycles += Cycles; }
  uint64_t charged() const { return ChargedCycles; }
  /// Simulated time at the current point inside the quantum.
  SimTime localNow() const;

  //===--- Host request queue ----------------------------------------------------===//

  bool hasHostReq() const;
  const HostReq &peekHostReq() const;
  HostReq popHostReq();

  //===--- SRAM buffers ----------------------------------------------------------===//

  bool bufferAvailable() const;
  int allocBuffer();
  void freeBuffer(int Buf);

  //===--- Host DMA (one engine, shared by fetch and deliver) ---------------------===//

  bool hostDmaFree() const;
  /// Fetch \p Bytes from host memory; completion appears in fetchDone
  /// with \p Tag.
  void startHostDmaFetch(uint32_t Bytes, uint64_t Tag);
  /// Deliver \p Bytes to host memory; completion appears in deliverDone.
  void startHostDmaDeliver(uint32_t Bytes, uint64_t Tag);
  bool hasFetchDone() const;
  uint64_t popFetchDone();
  bool hasDeliverDone() const;
  uint64_t popDeliverDone();

  //===--- Network ----------------------------------------------------------------===//

  bool sendDmaFree() const;
  /// When an engine is busy, these say when it frees (for re-polls).
  SimTime hostDmaBusyUntilTime() const;
  SimTime sendDmaBusyUntilTime() const;
  void transmit(Packet P);
  bool hasRxPacket() const;
  const Packet &peekRxPacket() const;
  Packet popRxPacket();

  //===--- Watchdog timer ------------------------------------------------------------===//

  /// Monotonic tick counter (incremented every TimerTickNs).
  uint64_t ticks() const;
  /// True once a new tick has elapsed since clearTimerEvent().
  bool timerFired() const;
  void clearTimerEvent();

  //===--- Host completion -------------------------------------------------------------===//

  void notifyRecv(int Src, uint32_t Size, uint64_t Token);

private:
  Nic &Device;
  uint64_t ChargedCycles = 0;
};

/// A firmware implementation: runs on the NIC CPU in quanta.
class Firmware {
public:
  virtual ~Firmware() = default;

  /// Processes all currently available work without blocking, using
  /// \p Env for device access and cycle charging. Called whenever the
  /// CPU is free and work may be pending.
  virtual void runQuantum(NicEnv &Env) = 0;

  /// Short name for reports ("vmmcESP", "vmmcOrig", ...).
  virtual const char *name() const = 0;

  /// If the last quantum stalled on a busy device resource, the time it
  /// frees up (0 = not stalled). The NIC re-polls then.
  virtual SimTime repollAt() const { return 0; }
};

/// The simulated NIC device.
class Nic {
public:
  Nic(int NodeId, Simulator &Sim);

  int nodeId() const { return NodeId; }
  Simulator &simulator() { return Sim; }

  void setFirmware(std::unique_ptr<Firmware> FW);
  Firmware *firmware() { return FW.get(); }

  //===--- Host-side API ----------------------------------------------------------===//

  void postRequest(HostReq Req);
  std::function<void(const RecvNotification &)> OnRecv;

  //===--- Wire-side API -----------------------------------------------------------===//

  void deliverPacket(Packet P);

  //===--- Device state (accessed by NicEnv) ---------------------------------------===//

  std::deque<HostReq> HostQ;
  std::deque<Packet> RxQ;
  std::deque<uint64_t> FetchDoneQ;
  std::deque<uint64_t> DeliverDoneQ;
  std::vector<int> FreeBuffers;
  SimTime HostDmaBusyUntil = 0;
  SimTime SendDmaBusyUntil = 0;
  uint64_t TickCount = 0;
  uint64_t LastSeenTick = 0;
  SimTime CpuBusyUntil = 0;
  SimTime QuantumStart = 0;
  NicEnv *ActiveEnv = nullptr;

  // Statistics.
  uint64_t TotalCycles = 0;
  uint64_t PacketsSent = 0;
  uint64_t PacketsReceived = 0;

  /// Requests a firmware poll as soon as the CPU is free.
  void schedulePoll();
  /// Starts the periodic watchdog tick.
  void startTimer();

private:
  void pollNow();
  void timerTick();
  bool workPending() const;

  int NodeId;
  Simulator &Sim;
  std::unique_ptr<Firmware> FW;
  bool PollScheduled = false;
  bool TimerRunning = false;
};

/// The whole simulated system: the event queue, the cost model, N NICs
/// and the full-duplex links between them.
class Simulator {
public:
  explicit Simulator(unsigned NumNodes, CostModel Costs = CostModel());

  EventQueue &events() { return Events; }
  const CostModel &costs() const { return Costs; }
  Nic &nic(unsigned Node) { return *Nics[Node]; }
  SimTime now() const { return Events.now(); }

  /// Transmits \p P from its source NIC: occupies the send DMA and the
  /// per-direction wire, then delivers to the destination NIC.
  void transmit(Packet P, SimTime EarliestStart);

  /// Optional loss injection: return true to drop the packet.
  std::function<bool(const Packet &)> DropFn;

  /// Runs until \p Pred() is true or \p MaxTime is reached. Returns true
  /// when the predicate fired.
  bool runUntil(const std::function<bool()> &Pred, SimTime MaxTime);

  uint64_t PacketsDropped = 0;

private:
  EventQueue Events;
  CostModel Costs;
  std::vector<std::unique_ptr<Nic>> Nics;
  /// Wire busy time per ordered (src, dest) pair.
  std::vector<SimTime> WireBusyUntil;
};

} // namespace sim
} // namespace esp

#endif // ESP_SIM_NIC_H
