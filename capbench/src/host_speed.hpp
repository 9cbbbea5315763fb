// Host speed: a fixed loop of the benchmark's own, timed between the
// operations of a run.
//
// The benchmark runs on a few virtual cores of a shared host whose speed
// changes with its other tenants' load. Within minutes, single processes of
// contend-4t ran from 2.2 M to 3.3 M commits/s on one build. The loop has
// two halves: a dependent multiply chain, which runs at the core's clock,
// and independent random reads over a 1 MiB table, which run at the speed
// of the loads and the caches. Of the loops tried, the sum of the two
// followed the workloads most closely. The loop calls no code of src/, so
// no change to the program moves it. Its median time over a run, divided
// by its time on a quiet host, is the run's host slowdown; the end-to-end
// times are reported divided by it, that is, at the quiet host's speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace capbench {

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the loop once on the calling thread and records its time.
  void sample();

  /// Median loop time so far over the quiet host's; 1 before any sample.
  double slowdown() const;

  std::size_t samples() const { return samples_s_.size(); }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 1;
  std::uint64_t sum_ = 0;
  std::vector<double> samples_s_;
};

/// The process's one HostSpeed.
HostSpeed& host_speed();

}  // namespace capbench
