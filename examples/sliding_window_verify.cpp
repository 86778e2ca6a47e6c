//===--- sliding_window_verify.cpp - Develop with the verifier ---------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The §5.3 development workflow: the retransmission protocol was written
// and debugged *inside the verifier* before ever touching the device.
// This example walks that path: a first protocol draft with a real bug
// (it frees the packet buffer as soon as it transmits, so a
// retransmission after loss touches freed memory), which the model
// checker catches with a counterexample trace; then the fixed protocol,
// which verifies cleanly and then executes.
//
// Build and run:  ./build/examples/sliding_window_verify
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "mc/ModelChecker.h"
#include "runtime/Machine.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <string>

using namespace esp;

/// Stop-and-wait protocol over a lossy wire. With KEEP_UNTIL_ACK == 0
/// the sender unlinks the payload right after the first transmission —
/// the injected bug; with 1 it unlinks only once acked.
static std::string makeProtocol(bool KeepUntilAck) {
  std::string Source = "const KEEP = ";
  Source += KeepUntilAck ? "1" : "0";
  Source += ";\n";
  Source += R"(
const NMSG = 2;
type pktT = record of { seq: int, data: array of int }
channel toWire: pktT
channel fromWire: pktT
channel ackC: int
channel trash: int

process sender {
  $seq = 0;
  while (seq < NMSG) {
    $payload: array of int = { 2 -> seq };
    out( toWire, { seq, payload });
    if (KEEP == 0) { unlink(payload); }   // BUG when the wire drops!
    $acked = false;
    while (!acked) {
      alt {
        case( in( ackC, $a)) {
          if (a == seq) { acked = true; }
        }
        case( out( toWire, { seq, payload })) {
          // Retransmission: touches `payload` again.
        }
      }
    }
    if (KEEP == 1) { unlink(payload); }
    seq = seq + 1;
  }
}

// The wire nondeterministically delivers or drops each packet.
process wire {
  while (true) {
    in( toWire, { $seq, $data });
    alt {
      case( out( fromWire, { seq, data })) { unlink(data); }
      case( out( trash, seq)) { unlink(data); }   // dropped
    }
  }
}

process receiver {
  $expected = 0;
  while (true) {
    in( fromWire, { $seq, $data });
    assert(data[0] == seq);
    unlink(data);
    if (seq == expected) { expected = expected + 1; }
    out( ackC, seq);
  }
}

process sink {
  while (true) { in( trash, $x); }
}
)";
  return Source;
}

static McResult verify(const std::string &Source, const char *Label) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult CR = compileBuffer(SM, Diags, Label, Source);
  if (!CR.Success) {
    std::fprintf(stderr, "compile failed:\n%s", Diags.renderAll().c_str());
    std::exit(1);
  }
  ModuleIR Module = std::move(CR.Module); // Unoptimized, §5.2.
  McOptions Options;
  Options.CheckDeadlock = false; // wire/receiver/sink loop forever.
  Options.MaxObjects = 64;
  McResult R = checkModel(Module, Options);
  std::printf("[%s] %s — %llu states explored\n", Label,
              R.foundViolation()
                  ? runtimeErrorKindName(R.Violation.Kind)
                  : "no violations",
              (unsigned long long)R.StatesExplored);
  if (R.foundViolation()) {
    std::printf("  counterexample (%zu moves):\n", R.Trace.size());
    for (const std::string &Step : R.Trace)
      std::printf("    %s\n", Step.c_str());
  }
  return R;
}

int main() {
  std::printf("Step 1: model-check the first draft (frees the payload "
              "right after the first send)\n");
  McResult Draft = verify(makeProtocol(false), "draft");
  if (!Draft.foundViolation()) {
    std::printf("expected the draft to fail!\n");
    return 1;
  }

  std::printf("\nStep 2: fix per the counterexample (keep the buffer "
              "until acked), re-verify\n");
  McResult Fixed = verify(makeProtocol(true), "fixed");
  if (Fixed.foundViolation())
    return 1;

  std::printf("\nStep 3: only now run the protocol (the paper ported to "
              "the card at this point;\nthe retransmission protocol ran "
              "without new bugs)\n");
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult CR = compileBuffer(SM, Diags, "fixed.esp", makeProtocol(true));
  std::unique_ptr<Program> Prog = std::move(CR.Prog);
  ModuleIR Module = std::move(CR.Module);
  Machine M(Module, MachineOptions());
  M.start();
  // The wire and receiver loop forever and the sender's retransmission
  // alternative is always enabled, so run until the sender process (index
  // 0) finishes its NMSG messages.
  uint64_t Steps = 0;
  while (M.proc(0).St != ProcState::Status::Done && Steps++ < 1'000'000 &&
         M.step() == StepResult::Progress)
    ;
  if (M.error()) {
    std::printf("runtime error: %s\n", M.error().Message.c_str());
    return 1;
  }
  bool SenderDone = M.proc(0).St == ProcState::Status::Done;
  std::printf("execution: sender %s after %llu rendezvous\n",
              SenderDone ? "delivered all messages and terminated"
                         : "still running",
              (unsigned long long)M.stats().Rendezvous);
  return SenderDone ? 0 : 1;
}
