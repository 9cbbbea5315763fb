// capbench: runs one workload from a seed, checks its outputs, and prints
// its metrics; the last line of standard output is the JSON result.
//
//   capbench --workload capture-1t|contend-4t|durable-ledger --seed N
//            --seconds S --trace 0|1 [--tmp DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run that
// prints the per-layer metrics and the tracing overhead. On durable-ledger
// half its time runs untraced and half traced; on the STAMP workloads the
// untraced run already holds every span, so it runs once and its overhead
// is 0. The unit-cost loops come last. Heap files go to a
// private directory under --tmp (default: the current directory).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "layers.hpp"
#include "ledger.hpp"
#include "report.hpp"
#include "stamp_mix.hpp"
#include "unit_costs.hpp"

namespace {

using namespace capbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string tmp = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "capbench: %s\nusage: capbench --workload "
               "capture-1t|contend-4t|durable-ledger --seed N --seconds S "
               "--trace 0|1 [--tmp DIR]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--tmp") {
      a.tmp = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

int finish(bool correct, const std::string& error, std::uint64_t attempted,
           std::uint64_t failed, const Metrics& m) {
  if (!correct) std::printf("# CHECK FAILED: %s\n", error.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double slowdown_pct(double plain_ops_per_s, double traced_ops_per_s) {
  return traced_ops_per_s <= 0.0
             ? 0.0
             : 100.0 * (plain_ops_per_s / traced_ops_per_s - 1.0);
}

int run_stamp(const MixSpec& mix, const Args& a) {
  Metrics m;
  // The untraced run already stamps every worker's start and end, so a
  // traced STAMP run is the same run plus the unit-cost loops, and tracing
  // costs it nothing by construction.
  const MixResult r = run_mix(mix, a.seed, a.seconds);
  print_app_table(mix, r);
  if (!r.correct) return finish(false, r.error, r.attempted, r.failed, m);
  if (a.trace == 0) {
    stamp_end_to_end(r, m);
    return finish(true, "", r.attempted, r.failed, m);
  }
  TraceInputs in;
  in.unit = measure_unit_costs(mix.config, a.tmp);
  const LedgerResult probe = run_ledger(ledger_probe(), a.seed, 1e-9, true, a.tmp);
  cstm::set_global_config(mix.config);
  if (!probe.correct) return finish(false, probe.error, r.attempted, 0, m);
  in.spans = stamp_spans(r, mix.apps.size());
  in.stats = r.stats;
  in.rounds = r.rounds;
  in.config = mix.config;
  in.batch = &probe;
  in.batch_is_workload = false;
  in.overhead_pct = 0.0;
  layer_metrics(in, m);
  return finish(true, "", r.attempted, r.failed, m);
}

int run_durable_ledger(const Args& a) {
  Metrics m;
  const LedgerSpec spec = ledger_workload();
  if (a.trace == 0) {
    const LedgerResult r = run_ledger(spec, a.seed, a.seconds, false, a.tmp);
    std::printf(
        "# durable-ledger: %zu rounds, %llu requests, %.0f req/s; medians per "
        "round: open %.6f s, reopen %.6f s\n",
        r.rounds, static_cast<unsigned long long>(r.attempted),
        static_cast<double>(r.committed) / r.timed_s, median(r.open_s),
        median(r.reopen_s));
    if (r.correct) ledger_end_to_end(r, m);
    return finish(r.correct, r.error, r.attempted, r.failed, m);
  }
  const LedgerResult plain = run_ledger(spec, a.seed, a.seconds / 2, false, a.tmp);
  if (!plain.correct) {
    return finish(false, plain.error, plain.attempted, plain.failed, m);
  }
  const LedgerResult traced = run_ledger(spec, a.seed, a.seconds / 2, true, a.tmp);
  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed;
  if (!traced.correct) return finish(false, traced.error, attempted, failed, m);
  TraceInputs in;
  in.unit = measure_unit_costs(ledger_config(), a.tmp);
  in.spans = ledger_spans(traced);
  in.stats = traced.stats;
  in.rounds = traced.rounds;
  in.config = ledger_config();
  in.batch = &traced;
  in.batch_is_workload = true;
  in.overhead_pct = slowdown_pct(
      static_cast<double>(plain.committed) / plain.timed_s,
      static_cast<double>(traced.committed) / traced.timed_s);
  layer_metrics(in, m);
  return finish(true, "", attempted, failed, m);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (const MixSpec* mix = find_mix(a.workload)) return run_stamp(*mix, a);
  if (a.workload == "durable-ledger") return run_durable_ledger(a);
  usage(("unknown workload " + a.workload).c_str());
}
