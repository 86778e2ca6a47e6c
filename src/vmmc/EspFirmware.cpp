//===--- EspFirmware.cpp - VMMC firmware running on the ESP runtime ---------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "vmmc/EspFirmware.h"

#include "driver/Driver.h"
#include "obs/TracingObserver.h"
#include "support/StringExtras.h"
#include "vmmc/EspFirmwareSource.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace esp;
using namespace esp::vmmc;
using namespace esp::sim;

//===----------------------------------------------------------------------===//
// Source accounting (for the lines-of-code experiment)
//===----------------------------------------------------------------------===//

unsigned esp::vmmc::getVmmcEspDeclLines() {
  std::string Source = getVmmcEspSource();
  size_t Split = Source.find("// ---- process section");
  return countEffectiveLines(Source.substr(0, Split));
}

unsigned esp::vmmc::getVmmcEspProcessLines() {
  std::string Source = getVmmcEspSource();
  size_t Split = Source.find("// ---- process section");
  return countEffectiveLines(Source.substr(Split));
}

//===----------------------------------------------------------------------===//
// External bindings (the paper's user-supplied C functions, §4.5)
//===----------------------------------------------------------------------===//

namespace {

/// Packs a (token, buffer) pair into a DMA completion tag.
uint64_t packTag(int64_t Token, int Buf) {
  return (static_cast<uint64_t>(Token) << 8) |
         static_cast<uint64_t>(Buf & 0xff);
}

/// Host request queue: the external writer behind `UserReq`.
class UserReqWriter : public ExternalWriter {
public:
  explicit UserReqWriter(EspFirmware &FW) : FW(FW) {}
  int isReady() override {
    NicEnv *Env = FW.CurEnv;
    if (!Env || !Env->hasHostReq())
      return 0;
    return Env->peekHostReq().K == HostReq::Kind::Send ? 1 : 2;
  }
  void produce(int CaseIndex, Heap &, std::vector<Value> &Out) override {
    const HostReq &Req = FW.CurEnv->peekHostReq();
    if (CaseIndex == 1) {
      Out.push_back(Value::makeInt(Req.Dest));
      Out.push_back(Value::makeInt(static_cast<int64_t>(Req.VAddr)));
      Out.push_back(Value::makeInt(Req.Size));
      Out.push_back(Value::makeInt(static_cast<int64_t>(Req.Token)));
    } else {
      Out.push_back(Value::makeInt(static_cast<int64_t>(Req.VAddr)));
      Out.push_back(Value::makeInt(static_cast<int64_t>(Req.PAddr)));
    }
  }
  void accepted(int) override { FW.CurEnv->popHostReq(); }

private:
  EspFirmware &FW;
};

/// Host DMA fetch engine: external reader behind `HostFetch`.
class HostFetchReader : public ExternalReader {
public:
  explicit HostFetchReader(EspFirmware &FW) : FW(FW) {}
  bool isReady() override {
    NicEnv *Env = FW.CurEnv;
    if (!Env->bufferAvailable())
      return false; // A FreeBuf consume will unblock us.
    if (!Env->hostDmaFree()) {
      FW.RepollAt = Env->hostDmaBusyUntilTime();
      return false;
    }
    return true;
  }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    NicEnv *Env = FW.CurEnv;
    // Args: pAddr, size, token.
    int Buf = Env->allocBuffer();
    Env->startHostDmaFetch(static_cast<uint32_t>(Args[1].Scalar),
                           packTag(Args[2].Scalar, Buf));
  }

private:
  EspFirmware &FW;
};

/// Fetch completions: external writer behind `HostFetchDone`.
class FetchDoneWriter : public ExternalWriter {
public:
  explicit FetchDoneWriter(EspFirmware &FW) : FW(FW) {}
  int isReady() override {
    return (Stashed || FW.CurEnv->hasFetchDone()) ? 1 : 0;
  }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    // Peek: NicEnv only exposes pop, so stash the tag until accepted.
    if (!Stashed) {
      Tag = FW.CurEnv->popFetchDone();
      Stashed = true;
    }
    Out.push_back(Value::makeInt(static_cast<int64_t>(Tag >> 8)));
    Out.push_back(Value::makeInt(static_cast<int64_t>(Tag & 0xff)));
  }
  void accepted(int) override { Stashed = false; }

private:
  EspFirmware &FW;
  uint64_t Tag = 0;
  bool Stashed = false;
};

/// Network transmit: external reader behind `NetTx`.
class NetTxReader : public ExternalReader {
public:
  explicit NetTxReader(EspFirmware &FW) : FW(FW) {}
  bool isReady() override {
    NicEnv *Env = FW.CurEnv;
    if (!Env->sendDmaFree()) {
      FW.RepollAt = Env->sendDmaBusyUntilTime();
      return false;
    }
    return true;
  }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    NicEnv *Env = FW.CurEnv;
    // Args: dest, seq, ack, kind, buf, size, msgBytes, token, src.
    Packet P;
    P.Dest = static_cast<int>(Args[0].Scalar);
    P.Seq = static_cast<uint32_t>(Args[1].Scalar);
    P.Ack = static_cast<uint32_t>(Args[2].Scalar);
    P.K = Args[3].Scalar == 0 ? Packet::Kind::Data : Packet::Kind::Ack;
    P.PayloadBytes = static_cast<uint32_t>(Args[5].Scalar);
    P.MsgBytes = static_cast<uint32_t>(Args[6].Scalar);
    P.Token = static_cast<uint64_t>(Args[7].Scalar);
    if (Args[4].Scalar < 0 && P.K == Packet::Kind::Data)
      // Inlined small message: the payload is copied by PIO.
      Env->charge(P.PayloadBytes * Env->costs().CyclesPerInlineByte);
    Env->transmit(P);
  }

private:
  EspFirmware &FW;
};

/// Packet arrival: external writer behind `NetRx`.
class NetRxWriter : public ExternalWriter {
public:
  explicit NetRxWriter(EspFirmware &FW) : FW(FW) {}
  int isReady() override { return FW.CurEnv->hasRxPacket() ? 1 : 0; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    const Packet &P = FW.CurEnv->peekRxPacket();
    Out.push_back(Value::makeInt(P.Dest));
    Out.push_back(Value::makeInt(P.Seq));
    Out.push_back(Value::makeInt(P.Ack));
    Out.push_back(Value::makeInt(P.K == Packet::Kind::Data ? 0 : 1));
    Out.push_back(Value::makeInt(-1));
    Out.push_back(Value::makeInt(P.PayloadBytes));
    Out.push_back(Value::makeInt(P.MsgBytes));
    Out.push_back(Value::makeInt(static_cast<int64_t>(P.Token)));
    Out.push_back(Value::makeInt(P.Src));
  }
  void accepted(int) override { FW.CurEnv->popRxPacket(); }

private:
  EspFirmware &FW;
};

/// Host DMA delivery: external reader behind `HostDeliver`.
class HostDeliverReader : public ExternalReader {
public:
  explicit HostDeliverReader(EspFirmware &FW) : FW(FW) {}
  bool isReady() override {
    NicEnv *Env = FW.CurEnv;
    if (!Env->hostDmaFree()) {
      FW.RepollAt = Env->hostDmaBusyUntilTime();
      return false;
    }
    return true;
  }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    // Args: size, token.
    FW.CurEnv->startHostDmaDeliver(static_cast<uint32_t>(Args[0].Scalar),
                                   static_cast<uint64_t>(Args[1].Scalar));
  }

private:
  EspFirmware &FW;
};

/// Delivery completions: external writer behind `HostDeliverDone`.
class DeliverDoneWriter : public ExternalWriter {
public:
  explicit DeliverDoneWriter(EspFirmware &FW) : FW(FW) {}
  int isReady() override {
    return (Stashed || FW.CurEnv->hasDeliverDone()) ? 1 : 0;
  }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    if (!Stashed) {
      Tag = FW.CurEnv->popDeliverDone();
      Stashed = true;
    }
    Out.push_back(Value::makeInt(static_cast<int64_t>(Tag)));
  }
  void accepted(int) override { Stashed = false; }

private:
  EspFirmware &FW;
  uint64_t Tag = 0;
  bool Stashed = false;
};

/// Receive notification to the host: external reader behind `Notify`.
class NotifyReader : public ExternalReader {
public:
  explicit NotifyReader(EspFirmware &FW) : FW(FW) {}
  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    // Args: src, size, token.
    FW.CurEnv->notifyRecv(static_cast<int>(Args[0].Scalar),
                          static_cast<uint32_t>(Args[1].Scalar),
                          static_cast<uint64_t>(Args[2].Scalar));
  }

private:
  EspFirmware &FW;
};

/// Buffer recycling: external reader behind `FreeBuf`.
class FreeBufReader : public ExternalReader {
public:
  explicit FreeBufReader(EspFirmware &FW) : FW(FW) {}
  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    FW.CurEnv->freeBuffer(static_cast<int>(Args[0].Scalar));
  }

private:
  EspFirmware &FW;
};

/// Watchdog ticks: external writer behind `Timer`.
class TimerWriter : public ExternalWriter {
public:
  explicit TimerWriter(EspFirmware &FW) : FW(FW) {}
  int isReady() override { return FW.CurEnv->timerFired() ? 1 : 0; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    Out.push_back(Value::makeInt(static_cast<int64_t>(FW.CurEnv->ticks())));
  }
  void accepted(int) override { FW.CurEnv->clearTimerEvent(); }

private:
  EspFirmware &FW;
};

} // namespace

//===----------------------------------------------------------------------===//
// EspFirmware
//===----------------------------------------------------------------------===//

EspFirmware::EspFirmware(OptOptions Optimize) {
  Diags = std::make_unique<DiagnosticEngine>(SM);
  CompileOptions Options;
  Options.Optimize = true;
  Options.Opt = Optimize;
  CompileResult R =
      compileBuffer(SM, *Diags, "vmmc.esp", getVmmcEspSource(), Options);
  if (!R.Success) {
    std::fprintf(stderr, "VMMC ESP firmware failed to compile:\n%s",
                 Diags->renderAll().c_str());
    std::abort();
  }
  Prog = std::move(R.Prog);
  Module = std::move(R.Optimized);

  MachineOptions MO;
  MO.MaxObjects = 0;
  MO.ReuseObjectIds = true;
  M = std::make_unique<Machine>(Module, MO);
  M->bindWriter("UserReq", std::make_unique<UserReqWriter>(*this));
  M->bindReader("HostFetch", std::make_unique<HostFetchReader>(*this));
  M->bindWriter("HostFetchDone", std::make_unique<FetchDoneWriter>(*this));
  M->bindReader("NetTx", std::make_unique<NetTxReader>(*this));
  M->bindWriter("NetRx", std::make_unique<NetRxWriter>(*this));
  M->bindReader("HostDeliver", std::make_unique<HostDeliverReader>(*this));
  M->bindWriter("HostDeliverDone",
                std::make_unique<DeliverDoneWriter>(*this));
  M->bindReader("Notify", std::make_unique<NotifyReader>(*this));
  M->bindReader("FreeBuf", std::make_unique<FreeBufReader>(*this));
  M->bindWriter("Timer", std::make_unique<TimerWriter>(*this));
  M->start();
  Last = M->stats();
  if (M->error()) {
    std::fprintf(stderr, "VMMC ESP firmware failed at startup: %s\n",
                 M->error().Message.c_str());
    std::abort();
  }
}

EspFirmware::~EspFirmware() {
  // Workload drivers own firmware through the simulator and drop both
  // together, so close the trace here; explicit finishTracing() earlier
  // is fine too (TraceWriter::finish is idempotent).
  finishTracing();
}

void EspFirmware::enableTracing(obs::TraceWriter &W) {
  Tracer = std::make_unique<obs::TracingObserver>(W, [this]() -> uint64_t {
    // EventQueue time is nanoseconds; trace timestamps are microseconds.
    // CurEnv is only valid inside runQuantum — outside (finishTracing),
    // reuse the last stamp so the trace never jumps backwards to zero.
    if (CurEnv)
      TraceNow = CurEnv->localNow() / 1000;
    return TraceNow;
  });
  Tracer->attach(*M, name());
  M->setObserver(Tracer.get());
}

void EspFirmware::finishTracing() {
  if (!Tracer)
    return;
  Tracer->finishTrace(*M);
  M->setObserver(nullptr);
  Tracer.reset();
}

void EspFirmware::runQuantum(NicEnv &Env) {
  CurEnv = &Env;
  RepollAt = 0;
  const sim::CostModel &C = Env.costs();
  for (uint64_t Guard = 0; Guard < 1'000'000; ++Guard) {
    StepResult R = M->step();
    // Charge the CPU for what the runtime actually did (§6.1).
    const ExecStats &S = M->stats();
    uint64_t Cycles =
        (S.Instructions - Last.Instructions) * C.CyclesPerEspInstruction +
        (S.ContextSwitches - Last.ContextSwitches) *
            C.CyclesPerContextSwitch +
        (S.Rendezvous - Last.Rendezvous) * C.CyclesPerRendezvous +
        (S.PollRounds - Last.PollRounds) * C.CyclesPerPollRound;
    Last = S;
    Env.charge(Cycles);
    if (R == StepResult::Errored) {
      std::fprintf(stderr, "VMMC ESP firmware runtime error: %s (%s)\n",
                   M->error().Message.c_str(),
                   runtimeErrorKindName(M->error().Kind));
      std::abort();
    }
    if (R != StepResult::Progress)
      break;
  }
  CurEnv = nullptr;
}
