//===--- bench_serve.cpp - Fleet serving throughput and latency -------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Measures the src/serve runtime: a fleet of VMMC serve-firmware machine
// instances (one shared CompiledProgram, per-machine heap and channel
// state) on a work-stealing pool, driven by the deterministic load
// generator. Reports aggregate requests/sec plus p50/p99/p999 request
// latency per worker count, into BENCH_serve.json.
//
// `--quick` is the CI smoke configuration (256 machines, 20k requests);
// the full run is the headline fleet scale: 10k machines, 1M requests,
// workers 1/2/4. Every row re-verifies the aggregate checksum against
// the load generator's prediction — a throughput number from a run that
// dropped or duplicated work would be meaningless.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "serve/Serve.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace esp;
using namespace esp::bench;

namespace {

obs::JsonValue Rows = obs::JsonValue::array();
bool AllOk = true;

void runRow(const std::string &Name, uint32_t Machines, uint64_t Requests,
            unsigned Workers, uint64_t ConnRequests) {
  serve::ServeOptions Opt;
  Opt.Machines = Machines;
  Opt.Requests = Requests;
  Opt.Workers = Workers;
  Opt.ConnRequests = ConnRequests;
  serve::ServeResult R = serve::runServe(Opt);

  using obs::JsonValue;
  JsonValue Row = JsonValue::object();
  Row.set("name", JsonValue::str(Name));
  Row.set("machines", jsonCount(Machines));
  Row.set("requests", jsonCount(Requests));
  Row.set("workers", jsonCount(Workers));
  Row.set("req_per_sec", jsonFixed(R.RequestsPerSec, 2));
  Row.set("p50_ns", jsonCount(R.P50Ns));
  Row.set("p99_ns", jsonCount(R.P99Ns));
  Row.set("p999_ns", jsonCount(R.P999Ns));
  Row.set("steals", jsonCount(R.Steals));
  Row.set("resets", jsonCount(R.Resets));
  Row.set("backpressure_stalls", jsonCount(R.BackpressureStalls));
  Row.set("verdict", JsonValue::str(R.Ok ? "ok" : "FAIL: " + R.Error));
  Rows.push(std::move(Row));
  AllOk &= R.Ok;

  std::printf("  %-22s %6u mach %8llu req %2u wrk: %10.0f req/s  "
              "p50 %7.1f us  p99 %7.1f us  p999 %7.1f us  [%s]\n",
              Name.c_str(), Machines,
              static_cast<unsigned long long>(Requests), Workers,
              R.RequestsPerSec, R.P50Ns / 1000.0, R.P99Ns / 1000.0,
              R.P999Ns / 1000.0, R.Ok ? "ok" : R.Error.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;

  printHeader("Fleet serving: aggregate req/s and latency percentiles");

  if (Quick) {
    runRow("smoke", 256, 20'000, 1, 64);
    runRow("smoke", 256, 20'000, 4, 64);
  } else {
    // The headline configuration: 10k machines, 1M requests. The recycle
    // threshold keeps Machine::reset() on the hot path at full scale.
    for (unsigned Workers : {1u, 2u, 4u})
      runRow("fleet10k", 10'000, 1'000'000, Workers, 256);
    runRow("fleet1k", 1'000, 200'000, 4, 256);
  }

  writeBenchJson("BENCH_serve.json", "serve", Quick, std::move(Rows));
  return AllOk ? 0 : 1;
}
