#include "host_speed.hpp"

#include "report.hpp"

namespace capbench {

namespace {

constexpr int kChainSteps = 500000;
constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MiB
constexpr int kReadSteps = 60000;
constexpr int kReadsPerStep = 8;
// The loop's median time on a quiet host (4-vCPU Xeon VM, g++ -O3).
constexpr double kQuietS = 1.5e-3;

}  // namespace

HostSpeed::HostSpeed() : table_(kTableWords) {
  for (std::size_t i = 0; i < kTableWords; ++i) table_[i] = i;
}

void HostSpeed::sample() {
  const Clock::time_point t0 = Clock::now();
  // The core's clock: each step depends on the one before.
  std::uint64_t h = sum_;
  for (int i = 0; i < kChainSteps; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    h ^= h >> 29;
  }
  sum_ += h & 1;
  // The loads and the caches: independent reads at random in the table.
  for (int i = 0; i < kReadSteps; ++i) {
    x_ = x_ * 6364136223846793005ull + 1;
    const std::uint64_t x = x_;
    for (int j = 0; j < kReadsPerStep; ++j) {
      sum_ += table_[(x >> (j * 7)) & (kTableWords - 1)];
    }
  }
  samples_s_.push_back(seconds_between(t0, Clock::now()));
}

double HostSpeed::slowdown() const {
  return samples_s_.empty() ? 1.0 : median(samples_s_) / kQuietS;
}

HostSpeed& host_speed() {
  static HostSpeed h;
  return h;
}

}  // namespace capbench
