// Shared pieces of the benchmark: clocks, percentiles, TxStats deltas, the
// equal-work check and the metric list printed as the run's JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stm/stats.hpp"

namespace capbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The q-quantile (q in [0, 1]) of @p values by linear interpolation
/// between the closest ranks of the sorted values (rank q * (n - 1)).
/// Returns 0 for an empty list. Sorts its argument.
double percentile(std::vector<double>& values, double q);

/// Median of @p values (percentile 0.5), 0 for an empty list.
double median(std::vector<double> values);

/// after - before, counter by counter. TxStats is a plain struct of
/// uint64 counters, so the subtraction walks it as an array.
cstm::TxStats stats_delta(const cstm::TxStats& after,
                          const cstm::TxStats& before);

/// The work one app run did, as the equal-work check compares it: top-level
/// commits and tx_malloc calls.
struct WorkCount {
  std::uint64_t commits = 0;
  std::uint64_t tx_allocs = 0;
};

/// True when @p a and @p b did the same work. Barrier elision may change
/// how each access is handled, never how many transactions commit or how
/// many blocks they allocate. On a mismatch @p why names the counter.
bool equal_work(const WorkCount& a, const WorkCount& b, std::string* why);

/// The process's resident-set high-water mark in MiB (getrusage).
double peak_rss_mb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one run, printed in insertion order.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Non-finite values are written as 0 so the line always parses.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& m);

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// 64-bit FNV-1a over @p n bytes (ledger image hashes).
std::uint64_t hash_bytes(const void* p, std::size_t n);

}  // namespace capbench
