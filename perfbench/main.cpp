//===--- main.cpp - espbench: the repository benchmark --------------------===//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// espbench --workload verify|fleet --seed N --seconds S
//          --trace 0|1 [--smoke] [--git-sha SHA] [--spans PREFIX]
//
// Runs the workload's own component at full size and the other three
// (compile, firmware and the other of verify/fleet) at probe size, each
// in a worker process of its own, interleaved over S seconds, with the
// set-up of all four repeated in between (setup_s is the median build
// time plus the median build the fleet's runServe does per unit). Prints a
// report line with the host header, then, as the last line, the result:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). The traced
// run alternates traced and untraced units of its own component, so it
// also reports the tracing overhead and the share of the unit's time the
// layer spans cover. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef ESPBENCH_BUILD_TYPE
#define ESPBENCH_BUILD_TYPE "unknown"
#endif

using namespace espbench;
using esp::obs::JsonValue;

namespace {

const char *const kWorkloads[] = {"verify", "fleet"};
const char *const kComponents[] = {"compile", "verify", "firmware", "fleet"};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string GitSha = "unknown";
  std::string SpansFile;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "espbench: %s\nusage: espbench --workload "
               "verify|fleet --seed N --seconds S "
               "--trace 0|1 [--smoke] [--git-sha SHA] [--spans PREFIX]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--git-sha")
      A.GitSha = V;
    else if (Flag == "--spans")
      A.SpansFile = V;
    else
      usage(("unknown option " + Flag).c_str());
  }
  bool Known = false;
  for (const char *W : kWorkloads)
    Known |= A.Workload == W;
  if (!Known)
    usage("unknown workload");
  return A;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    std::string Brand(reinterpret_cast<const char *>(Regs), sizeof(Regs));
    Brand = Brand.c_str(); // Drop the NUL padding.
    size_t B = Brand.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : Brand.substr(B);
  }
#endif
  return "unknown";
}

JsonValue hostHeader(const Args &A) {
  JsonValue H = JsonValue::object();
  H.set("nproc", JsonValue::integer(std::thread::hardware_concurrency()));
  H.set("cpu_model", JsonValue::str(cpuModel()));
#if defined(__clang__)
  H.set("compiler", JsonValue::str(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  H.set("compiler", JsonValue::str(std::string("gcc ") + __VERSION__));
#else
  H.set("compiler", JsonValue::str("unknown"));
#endif
  H.set("build_type", JsonValue::str(ESPBENCH_BUILD_TYPE));
  H.set("git_sha", JsonValue::str(A.GitSha));
  return H;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// Share of each traced unit's time that its direct child spans cover
/// (median over units).
double spanCoverage(const std::vector<Span> &Spans, const char *UnitName) {
  std::vector<double> Shares;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &U = Spans[I];
    if (U.Name != UnitName || U.EndNs <= U.StartNs)
      continue;
    double Covered = 0;
    for (const Span &C : Spans)
      if (C.Parent == static_cast<int>(I))
        Covered += static_cast<double>(C.EndNs - C.StartNs);
    Shares.push_back(Covered / static_cast<double>(U.EndNs - U.StartNs));
  }
  return median(Shares);
}

std::unique_ptr<Component> makeComponent(const std::string &Name,
                                         const Context &Ctx) {
  if (Name == "compile")
    return makeCompileComponent(Ctx);
  if (Name == "verify")
    return makeVerifyComponent(Ctx);
  if (Name == "firmware")
    return makeFirmwareComponent(Ctx);
  return makeFleetComponent(Ctx);
}

JsonValue metricsJson(const MetricSet &Metrics) {
  JsonValue List = JsonValue::array();
  for (const Metric &M : Metrics.items()) {
    JsonValue V = JsonValue::object();
    V.set("name", JsonValue::str(M.Name));
    V.set("value", JsonValue::number(M.Value));
    V.set("unit", JsonValue::str(M.Unit));
    List.push(std::move(V));
  }
  return List;
}

/// The worker side: runs one component on the parent's commands, one per
/// line — "setup", "unit 0|1" (untraced/traced), "finish" — answering
/// each of the first two with the seconds it took and the seconds of
/// traced-only work in it, and "finish" with the component's metrics and
/// checks as one JSON line.
[[noreturn]] void workerMain(const std::string &Name, const Args &A,
                             Scale Size, FILE *In, FILE *Out) {
  SpanRecorder Spans;
  Checks Chk;
  Context Ctx;
  Ctx.Seed = A.Seed;
  Ctx.Size = Size;
  Ctx.Spans = &Spans;
  Ctx.Chk = &Chk;
  std::unique_ptr<Component> C = makeComponent(Name, Ctx);
  char Line[64];
  while (std::fgets(Line, sizeof(Line), In)) {
    std::string Cmd(Line);
    if (Cmd == "finish\n")
      break;
    uint64_t T0 = nowNs();
    if (Cmd == "setup\n") {
      C->setup();
    } else {
      bool Traced = Cmd == "unit 1\n";
      Spans.setActive(Traced);
      Spans.beginUnit();
      C->runUnit(Traced);
      Spans.setActive(false);
    }
    std::fprintf(Out, "%.9f %.9f\n", (nowNs() - T0) / 1e9,
                 Spans.takeTracedOnlyNs() / 1e9);
    std::fflush(Out);
  }

  MetricSet Metrics;
  if (A.Trace)
    C->perLayer(Metrics);
  else
    C->endToEnd(Metrics);
  JsonValue R = JsonValue::object();
  R.set("metrics", metricsJson(Metrics));
  R.set("attempted",
        JsonValue::integer(static_cast<int64_t>(Chk.attempted())));
  R.set("failed", JsonValue::integer(static_cast<int64_t>(Chk.failed())));
  JsonValue Failures = JsonValue::array();
  for (const std::string &F : Chk.failures())
    Failures.push(JsonValue::str(F));
  R.set("failures", std::move(Failures));
  R.set("peak_rss_mb", JsonValue::number(peakRssMb()));
  R.set("unit_setup_s", JsonValue::number(C->unitSetupSeconds()));
  R.set("span_coverage", JsonValue::number(spanCoverage(
                             Spans.spans(), (Name + ".unit").c_str())));
  std::fprintf(Out, "%s\n", R.dump().c_str());
  std::fflush(Out);
  if (A.Trace && !A.SpansFile.empty()) {
    std::ofstream File(A.SpansFile + Name + ".json");
    File << Spans.json() << "\n";
  }
  std::_Exit(0);
}

/// The parent side of one worker process.
struct Worker {
  std::string Name;
  pid_t Pid = -1;
  FILE *To = nullptr;
  FILE *From = nullptr;
};

std::vector<Worker> Workers;

/// Stops and reaps every worker, then exits without a result.
[[noreturn]] void abandon(const std::string &Why) {
  std::fprintf(stderr, "espbench: %s\n", Why.c_str());
  for (Worker &W : Workers) {
    if (W.Pid > 0) {
      kill(W.Pid, SIGKILL);
      waitpid(W.Pid, nullptr, 0);
    }
  }
  std::exit(1);
}

void startWorker(const std::string &Name, const Args &A, Scale Size) {
  int Down[2], Up[2];
  if (pipe(Down) != 0 || pipe(Up) != 0)
    abandon("cannot create pipes");
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    abandon("cannot fork");
  if (Pid == 0) {
    // The child dies with the parent and keeps only its own pipe ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    for (Worker &W : Workers) {
      std::fclose(W.To);
      std::fclose(W.From);
    }
    close(Down[1]);
    close(Up[0]);
    workerMain(Name, A, Size, fdopen(Down[0], "r"), fdopen(Up[1], "w"));
  }
  close(Down[0]);
  close(Up[1]);
  Workers.push_back({Name, Pid, fdopen(Down[1], "w"), fdopen(Up[0], "r")});
}

std::string readLine(Worker &W) {
  std::string Line;
  int Ch;
  while ((Ch = std::fgetc(W.From)) != EOF && Ch != '\n')
    Line += static_cast<char>(Ch);
  if (Ch == EOF)
    abandon("worker '" + W.Name + "' ended early");
  return Line;
}

struct CommandTime {
  double Seconds = 0;
  double TracedOnlySeconds = 0;
};

/// Sends one command and returns the seconds the worker reports.
CommandTime command(Worker &W, const char *Cmd) {
  std::fprintf(W.To, "%s\n", Cmd);
  std::fflush(W.To);
  std::string Line = readLine(W);
  char *Rest = nullptr;
  CommandTime T;
  T.Seconds = std::strtod(Line.c_str(), &Rest);
  T.TracedOnlySeconds = std::strtod(Rest, nullptr);
  return T;
}

JsonValue finish(Worker &W) {
  std::fprintf(W.To, "finish\n");
  std::fflush(W.To);
  JsonValue R;
  std::string Error;
  if (!esp::obs::parseJson(readLine(W), R, Error))
    abandon("bad report from worker '" + W.Name + "': " + Error);
  int Status = 0;
  waitpid(W.Pid, &Status, 0);
  W.Pid = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    abandon("worker '" + W.Name + "' failed");
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // A worker that dies shows up as end of file on its pipe, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  // One worker process per component keeps each one's heap and allocator
  // state its own: sharing a process, the compile passes' allocation
  // churn slowed the fleet probe up to 3x in some runs and not in others.
  size_t Own = 0;
  for (size_t I = 0; I != std::size(kComponents); ++I) {
    bool IsOwn = A.Workload == kComponents[I];
    if (IsOwn)
      Own = I;
    startWorker(kComponents[I], A,
                A.Smoke ? Scale::Smoke : IsOwn ? Scale::Full : Scale::Probe);
  }

  // Set-up: everything the timed region needs. It is repeated inside the
  // timed region too, so setup_s is a median over several builds.
  std::vector<double> SetupS;
  auto SetupAll = [&] {
    CommandTime T;
    for (Worker &W : Workers)
      T.Seconds += command(W, "setup").Seconds;
    SetupS.push_back(T.Seconds);
    return T;
  };
  SetupAll();

  // The timed region interleaves units of every component, so a slow
  // stretch of the host hits all of them alike instead of one whole
  // metric. Each step runs the task furthest below its share of the
  // time; the run ends when the time is up and every task has its
  // minimum number of units. Task 0 is the re-setup, 1.. the components.
  struct Task {
    Worker *W = nullptr; // Null for the re-setup task.
    double Share = 0;
    unsigned MinUnits = 0;
    double SpentS = 0;
    unsigned Units = 0;
  };
  std::vector<Task> Tasks;
  Tasks.push_back({nullptr, 0.05, 5});
  // The other long component (verify or fleet) gets three times the share
  // of the compile and firmware probes, whose units take milliseconds and
  // give hundreds of samples even at 5%.
  for (size_t I = 0; I != Workers.size(); ++I) {
    bool Long = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                          Workers[I].Name) != std::end(kWorkloads);
    Tasks.push_back({&Workers[I], I == Own ? 0.70 : Long ? 0.15 : 0.05, 4});
  }

  // The traced run alternates pairs of untraced and traced units of the
  // workload's own component, so the two can be compared (pairs, because
  // the verify component alternates its two searches). A traced pair's
  // time leaves out the work only traced units do.
  std::vector<double> PairS[2];
  double Pair = 0;
  uint64_t Start = nowNs();
  for (;;) {
    double Elapsed = (nowNs() - Start) / 1e9;
    Task *Next = nullptr;
    for (Task &T : Tasks) {
      bool Wanted = T.Units < T.MinUnits ||
                    (Elapsed < A.Seconds &&
                     Elapsed + T.SpentS / std::max(1u, T.Units) <= A.Seconds);
      if (Wanted && (!Next || T.SpentS / T.Share < Next->SpentS / Next->Share))
        Next = &T;
    }
    if (!Next)
      break;
    bool IsOwn = Next->W == &Workers[Own];
    bool Traced = A.Trace && (!IsOwn || Next->Units / 2 % 2 == 1);
    CommandTime T = Next->W
                        ? command(*Next->W, Traced ? "unit 1" : "unit 0")
                        : SetupAll();
    if (IsOwn) {
      Pair += T.Seconds - T.TracedOnlySeconds;
      if (Next->Units % 2 == 1) {
        PairS[Traced].push_back(Pair);
        Pair = 0;
      }
    }
    Next->SpentS += T.Seconds;
    ++Next->Units;
  }

  std::vector<JsonValue> Reports;
  for (Worker &W : Workers)
    Reports.push_back(finish(W));

  JsonValue MetricsJson = JsonValue::object();
  auto Add = [&](const std::string &Name, double Value, const char *Unit) {
    JsonValue V = JsonValue::object();
    V.set("value", JsonValue::number(Value));
    V.set("unit", JsonValue::str(Unit));
    MetricsJson.set(Name, std::move(V));
  };
  if (!A.Trace) {
    double UnitSetupS = 0;
    for (const JsonValue &R : Reports)
      UnitSetupS += R.get("unit_setup_s").asDouble();
    Add("setup_s", median(SetupS) + UnitSetupS, "s");
    Add("peak_rss_mb", Reports[Own].get("peak_rss_mb").asDouble(), "MB");
  }
  uint64_t Attempted = 0, Failed = 0;
  JsonValue Failures = JsonValue::array();
  for (const JsonValue &R : Reports) {
    const JsonValue &List = R.get("metrics");
    for (size_t I = 0; I != List.size(); ++I)
      Add(List.at(I).get("name").asString(),
          List.at(I).get("value").asDouble(),
          List.at(I).get("unit").asString().c_str());
    Attempted += R.get("attempted").asInt();
    Failed += R.get("failed").asInt();
    const JsonValue &F = R.get("failures");
    for (size_t I = 0; I != F.size(); ++I)
      Failures.push(F.at(I));
  }
  if (A.Trace) {
    double Untraced = fastestTime(PairS[0]);
    Add("trace.overhead_share",
        Untraced > 0 ? fastestTime(PairS[1]) / Untraced - 1.0 : 0, "ratio");
    Add("trace.span_coverage", Reports[Own].get("span_coverage").asDouble(),
        "ratio");
  }

  JsonValue Report = JsonValue::object();
  Report.set("host", hostHeader(A));
  Report.set("workload", JsonValue::str(A.Workload));
  Report.set("seed", JsonValue::integer(static_cast<int64_t>(A.Seed)));
  Report.set("trace", JsonValue::boolean(A.Trace));
  Report.set("units", JsonValue::integer(Tasks[Own + 1].Units));
  Report.set("failed_share",
             JsonValue::number(Attempted ? double(Failed) / Attempted : 0.0));
  Report.set("failures", std::move(Failures));
  std::printf("%s\n", Report.dump().c_str());

  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue::boolean(Failed == 0));
  Result.set("attempted", JsonValue::integer(static_cast<int64_t>(Attempted)));
  Result.set("failed", JsonValue::integer(static_cast<int64_t>(Failed)));
  Result.set("metrics", std::move(MetricsJson));
  std::printf("%s\n", Result.dump().c_str());
  return 0;
}
