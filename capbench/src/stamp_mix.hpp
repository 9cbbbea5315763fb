// STAMP workloads: a fixed mix of apps, each run through the public App
// interface (setup, worker, verify) on threads the benchmark owns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "stm/config.hpp"
#include "stm/stats.hpp"

namespace capbench {

struct AppSpec {
  std::string name;  // a stamp::make_app name
  double scale = 1.0;
};

struct MixSpec {
  std::string workload;
  std::vector<AppSpec> apps;
  int threads = 1;
  cstm::TxConfig config;
};

/// The mix of a STAMP workload (capture-1t, contend-4t); nullptr otherwise.
const MixSpec* find_mix(const std::string& workload);

/// One app execution. The clock starts before the workers are released
/// and stops when the last one returns; each worker stamps its own start
/// and end.
struct AppRun {
  std::string app;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double verify_s = 0.0;
  std::vector<double> busy_s;  // per worker: its end - its start
  std::vector<double> wait_s;  // per worker: last worker's end - its end
  cstm::TxStats stats;         // TxStats delta over the worker region
  bool ok = false;             // verify() passed and no worker threw
  std::string error;
};

/// Per-app seed: the workload seed mixed with the app's name, so apps in
/// one mix draw independent inputs.
std::uint64_t app_seed(std::uint64_t seed, const std::string& app);

/// The seed of round @p round of a run (round 0 is the warm-up). Each
/// round draws new inputs, so a run's medians cover many inputs rather
/// than the one set a single seed gives.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

/// Runs @p spec once under the current global TxConfig.
AppRun run_app_once(const AppSpec& spec, int threads, std::uint64_t seed);

/// What one STAMP workload run measured.
struct MixResult {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;  // timed app runs, plus a failing warm-up run
  std::uint64_t failed = 0;     // app runs that failed a check (stops the run)
  double setup_s = 0.0;         // the cold (first) setup() of every app
  double timed_s = 0.0;         // sum of the timed app regions
  cstm::TxStats stats;          // TxStats over the timed app regions
  std::vector<AppRun> runs;     // the timed app runs, in order
  std::size_t rounds = 0;
};

/// Runs an untimed warm-up round (its setups are the cold set-up time),
/// then whole rounds of the mix until @p seconds have passed. The first
/// app run that fails a check ends the run and counts as attempted and
/// failed.
MixResult run_mix(const MixSpec& mix, std::uint64_t seed, double seconds);

/// Adds the end-to-end metrics of a STAMP run to @p m, at the quiet host's
/// speed (see host_speed.hpp); prints them at wall-clock speed and every
/// round's latency as report lines. Its latency percentiles are over
/// rounds (one run of every app in the mix).
void stamp_end_to_end(const MixResult& r, Metrics& m);

/// Prints the per-app table (medians over the timed rounds).
void print_app_table(const MixSpec& mix, const MixResult& r);

}  // namespace capbench
