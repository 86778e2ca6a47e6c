//===--- pagetable_dispatch.cpp - Pattern dispatch + external interfaces ------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The paper's Appendix B page-table scenario: one request channel whose
// union messages are dispatched *by pattern* to two different processes
// (§4.2), with the host side implemented as external C++ bindings using
// the paper's IsReady/per-case protocol (§4.5).
//
// Build and run:  ./build/examples/pagetable_dispatch
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "ir/Passes.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <deque>
#include <vector>

using namespace esp;

/// The program, examples/esp/pagetable.esp, compiled in by the build
/// (esp_embed_source in examples/CMakeLists.txt).
const char *pagetableSource();

namespace {

struct HostRequest {
  bool IsLookup;
  int64_t VPage;
  int64_t PPage;
};

/// The host side of UserReq: the paper's UserReqIsReady/UserReqSend/
/// UserReqUpdate trio as one binding object.
class HostDriver : public ExternalWriter {
public:
  std::deque<HostRequest> Queue;
  int isReady() override {
    if (Queue.empty())
      return 0;
    return Queue.front().IsLookup ? 1 : 2;
  }
  void produce(int CaseIndex, Heap &, std::vector<Value> &Out) override {
    const HostRequest &Req = Queue.front();
    Out.push_back(Value::makeInt(Req.VPage));
    if (CaseIndex == 2)
      Out.push_back(Value::makeInt(Req.PPage));
  }
  void accepted(int) override { Queue.pop_front(); }
};

class ResultCollector : public ExternalReader {
public:
  std::vector<int64_t> Results;
  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    Results.push_back(Args[0].Scalar);
  }
};

} // namespace

int main() {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileOptions COpts;
  COpts.Optimize = true;
  CompileResult R = compileBuffer(SM, Diags, "pagetable.esp",
                                  pagetableSource(), COpts);
  if (!R.Success) {
    std::fprintf(stderr, "compilation failed:\n%s",
                 Diags.renderAll().c_str());
    return 1;
  }
  std::unique_ptr<Program> Prog = std::move(R.Prog);
  ModuleIR Module = std::move(R.Optimized);
  Machine M(Module, MachineOptions());

  auto Driver = std::make_unique<HostDriver>();
  HostDriver *DriverPtr = Driver.get();
  auto Collector = std::make_unique<ResultCollector>();
  ResultCollector *CollectorPtr = Collector.get();
  M.bindWriter("UserReq", std::move(Driver));
  M.bindReader("Result", std::move(Collector));

  // Install a few mappings, then look them up. The updates and lookups
  // travel on the *same* channel; the union arm routes each message to
  // the right process without any explicit demultiplexer.
  DriverPtr->Queue.push_back({false, 3, 300});
  DriverPtr->Queue.push_back({false, 7, 700});
  DriverPtr->Queue.push_back({true, 3, 0});
  DriverPtr->Queue.push_back({true, 7, 0});
  DriverPtr->Queue.push_back({true, 5, 0});

  M.start();
  M.run(100000);
  if (M.error()) {
    std::fprintf(stderr, "runtime error: %s\n", M.error().Message.c_str());
    return 1;
  }

  std::printf("lookups returned:");
  for (int64_t R : CollectorPtr->Results)
    std::printf(" %lld", static_cast<long long>(R));
  std::printf("\n");
  bool OK = CollectorPtr->Results ==
            std::vector<int64_t>{300, 700, 0};
  std::printf("%s\n", OK ? "dispatch worked: updates and lookups routed "
                           "by pattern"
                         : "UNEXPECTED RESULTS");
  return OK ? 0 : 1;
}
