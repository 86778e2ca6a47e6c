//===--- espserve.cpp - Fleet-scale ESP serving driver ----------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Drives the src/serve runtime: N machine instances of the VMMC serve
// firmware (one per simulated client connection, one shared compiled
// program) on a work-stealing worker pool, under a deterministic load.
// Verifies the aggregate totals against the load generator's prediction
// and reports throughput plus latency percentiles. See docs/serving.md.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Trace.h"
#include "serve/Serve.h"
#include "support/ToolArgs.h"

#include <cstdio>
#include <string>

using namespace esp;

namespace {

const char kUsage[] =
    "usage: espserve [options]\n"
    "\n"
    "Fleet-scale ESP serving: thousands of firmware machine instances\n"
    "on a work-stealing thread pool, driven by a deterministic load\n"
    "generator. Exit 0 only when every request was answered and the\n"
    "aggregate totals match the generator's prediction.\n"
    "\n"
    "options:\n"
    "  --machines N        connection slots / machine instances\n"
    "                      (default 256)\n"
    "  --requests N        total requests across the fleet\n"
    "                      (default 10000)\n"
    "  --jobs N            worker threads; 1 = deterministic schedule\n"
    "                      (default 1, at most 1024)\n"
    "  --inbox-cap N       per-machine inbox bound (default 64)\n"
    "  --batch N           max burst / event-delivery batch (default 16)\n"
    "  --conn-requests N   recycle a machine after N responses\n"
    "                      (default 0 = never)\n"
    "  --seed N            load-generator seed (default 1)\n"
    "  --stats-json FILE   write the run's numbers as JSON\n"
    "  --trace FILE        Chrome trace of the first --trace-machines\n"
    "                      machines (implies --jobs 1)\n"
    "  --trace-machines N  how many machines get trace tracks\n"
    "                      (default 1)\n"
    "  --quiet, -q         suppress the summary line\n"
    "  --help, --version\n";

} // namespace

int main(int Argc, char **Argv) {
  ToolArgs Args(Argc, Argv, "espserve", kUsage);

  serve::ServeOptions Opt;
  std::string StatsPath, TracePath;

  while (Args.next()) {
    if (Args.optionUInt("--machines", Opt.Machines, 1) ||
        Args.optionUInt("--requests", Opt.Requests, 1) ||
        Args.optionUInt("--jobs", Opt.Workers, 1, MaxToolJobs) ||
        Args.optionUInt("--inbox-cap", Opt.InboxCap, 1) ||
        Args.optionUInt("--batch", Opt.Batch, 1) ||
        Args.optionUInt("--conn-requests", Opt.ConnRequests) ||
        Args.optionUInt("--seed", Opt.Seed) ||
        Args.optionUInt("--trace-machines", Opt.TraceMachines, 1) ||
        Args.option("--stats-json", StatsPath) ||
        Args.option("--trace", TracePath))
      ;
    else
      Args.unknownOrBuiltin();
  }
  if (Args.shouldExit())
    return Args.exitCode();

  obs::TraceWriter Trace;
  if (!TracePath.empty()) {
    if (Opt.Workers != 1) {
      // Tracing needs the deterministic single-worker schedule; honor
      // the trace request rather than silently dropping it.
      if (!Args.quiet())
        std::fprintf(stderr,
                     "espserve: --trace forces --jobs 1 "
                     "(deterministic schedule)\n");
      Opt.Workers = 1;
    }
    Opt.Trace = &Trace;
  }

  serve::ServeResult R = serve::runServe(Opt);

  if (!TracePath.empty() && !Trace.writeFile(TracePath)) {
    Args.error("cannot write trace file '" + TracePath + "'");
    return Args.exitCode();
  }

  if (!StatsPath.empty()) {
    auto Int = [](uint64_t V) {
      return obs::JsonValue::integer(static_cast<int64_t>(V));
    };
    obs::JsonValue Run = obs::JsonValue::object();
    Run.set("machines", Int(Opt.Machines));
    Run.set("requests", Int(Opt.Requests));
    Run.set("workers", Int(Opt.Workers));
    Run.set("elapsed_ns", Int(R.ElapsedNs));
    Run.set("requests_per_sec", obs::JsonValue::number(R.RequestsPerSec));
    Run.set("p50_ns", Int(R.P50Ns));
    Run.set("p99_ns", Int(R.P99Ns));
    Run.set("p999_ns", Int(R.P999Ns));
    Run.set("responses", Int(R.Totals.Responses));
    Run.set("steals", Int(R.Steals));
    Run.set("parks", Int(R.Parks));
    Run.set("wakes", Int(R.Wakes));
    Run.set("backpressure_stalls", Int(R.BackpressureStalls));
    Run.set("resets", Int(R.Resets));
    Run.set("instructions", Int(R.InstrTotal));
    Run.set("inbox_high_water", Int(R.InboxHighWater));
    Run.set("queue_high_water", Int(R.QueueHighWater));
    Run.set("heap_high_water_max", Int(R.HeapHighWaterMax));
    Run.set("heap_high_water_p50", Int(R.HeapHighWaterP50));
    Run.set("heap_high_water_p99", Int(R.HeapHighWaterP99));
    Run.set("checksum", Int(R.Totals.Checksum));
    obs::JsonValue Stats = obs::JsonValue::object();
    Stats.set("run", std::move(Run));
    std::string Text = Stats.dump(2);
    std::FILE *Out = std::fopen(StatsPath.c_str(), "w");
    if (!Out) {
      Args.error("cannot write stats file '" + StatsPath + "'");
      return Args.exitCode();
    }
    std::fwrite(Text.data(), 1, Text.size(), Out);
    std::fputc('\n', Out);
    std::fclose(Out);
  }

  if (!R.Ok) {
    Args.error(R.Error);
    return Args.exitCode();
  }

  if (!Args.quiet())
    std::printf("espserve: %llu machines, %llu requests, %u workers: "
                "%.0f req/s, p50 %.1f us, p99 %.1f us, p999 %.1f us "
                "(steals %llu, resets %llu, stalls %llu)\n",
                static_cast<unsigned long long>(Opt.Machines),
                static_cast<unsigned long long>(R.Totals.Responses),
                Opt.Workers, R.RequestsPerSec, R.P50Ns / 1000.0,
                R.P99Ns / 1000.0, R.P999Ns / 1000.0,
                static_cast<unsigned long long>(R.Steals),
                static_cast<unsigned long long>(R.Resets),
                static_cast<unsigned long long>(R.BackpressureStalls));
  return 0;
}
