#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace capbench {

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

cstm::TxStats stats_delta(const cstm::TxStats& after,
                          const cstm::TxStats& before) {
  static_assert(std::is_trivially_copyable_v<cstm::TxStats>);
  static_assert(sizeof(cstm::TxStats) % sizeof(std::uint64_t) == 0,
                "TxStats must hold only uint64 counters");
  constexpr std::size_t n = sizeof(cstm::TxStats) / sizeof(std::uint64_t);
  std::uint64_t a[n];
  std::uint64_t b[n];
  std::memcpy(a, &after, sizeof(a));
  std::memcpy(b, &before, sizeof(b));
  for (std::size_t i = 0; i < n; ++i) a[i] -= b[i];
  cstm::TxStats d;
  std::memcpy(&d, a, sizeof(a));
  return d;
}

bool equal_work(const WorkCount& a, const WorkCount& b, std::string* why) {
  char buf[160];
  if (a.commits != b.commits) {
    std::snprintf(buf, sizeof(buf), "commits differ: %llu vs %llu",
                  static_cast<unsigned long long>(a.commits),
                  static_cast<unsigned long long>(b.commits));
    if (why != nullptr) *why = buf;
    return false;
  }
  if (a.tx_allocs != b.tx_allocs) {
    std::snprintf(buf, sizeof(buf), "tx_malloc calls differ: %llu vs %llu",
                  static_cast<unsigned long long>(a.tx_allocs),
                  static_cast<unsigned long long>(b.tx_allocs));
    if (why != nullptr) *why = buf;
    return false;
  }
  return true;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Metrics::add(std::string name, double value, std::string unit) {
  items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const Metric& x : m.all()) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(x.value) ? x.value : 0.0);
    out += "\"" + x.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           x.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::uint64_t hash_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace capbench
