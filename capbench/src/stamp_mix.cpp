#include "stamp_mix.hpp"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>

#include "host_speed.hpp"
#include "stamp/app.hpp"
#include "support/random.hpp"

namespace capbench {

namespace {

// App sizes: each timed region lasts 15-50 ms, so a 30-second run holds a
// few hundred rounds and the medians settle.
const MixSpec kCapture1t{
    "capture-1t",
    {{"bayes", 1.0},
     {"genome", 1.0},
     {"intruder", 1.0},
     {"vacation-low", 0.5},
     {"yada", 1.0}},
    1,
    cstm::TxConfig::runtime_rw(cstm::AllocLogKind::kArray)};

const MixSpec kContend4t{
    "contend-4t",
    {{"genome", 1.0},
     {"intruder", 1.0},
     {"kmeans-high", 1.0},
     {"kmeans-low", 1.0}},
    4,
    cstm::TxConfig::compiler()};

// Worker threads run on stacks the benchmark places itself, at a new
// offset in each app run. glibc keeps a thread's TLS at the top of its
// stack, so thread-local state seeded from its own address (txmap's treap
// priorities) changes from run to run; with std::thread the cached stack
// comes back at one address, and that state is fixed for the process.
// The shifts step by 37 cache lines through a 64 KiB span: 1024 distinct
// offsets, each worker touching at most 64 KiB more stack than without.
constexpr std::size_t kMaxWorkers = 4;  // the most threads a mix runs
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kShiftSpan = std::size_t{64} << 10;
constexpr std::size_t kShiftStep = 64 * 37;

class WorkerStacks {
 public:
  explicit WorkerStacks(std::size_t n) : n_(n) {
    bytes_ = n * (kStackBytes + kShiftSpan);
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    base_ = p == MAP_FAILED ? nullptr : static_cast<char*>(p);
  }
  ~WorkerStacks() {
    if (base_ != nullptr) munmap(base_, bytes_);
  }
  WorkerStacks(const WorkerStacks&) = delete;
  WorkerStacks& operator=(const WorkerStacks&) = delete;

  /// Starts @p fn on worker @p i's stack at shift @p shift; false on failure.
  bool start(std::size_t i, std::size_t shift, std::function<void()>* fn,
             pthread_t* out) const {
    if (base_ == nullptr || i >= n_) return false;
    char* lo = base_ + i * (kStackBytes + kShiftSpan) +
               (shift * kShiftStep) % kShiftSpan;
    pthread_attr_t attr;
    if (pthread_attr_init(&attr) != 0) return false;
    const bool ok = pthread_attr_setstack(&attr, lo, kStackBytes) == 0 &&
                    pthread_create(out, &attr, &entry, fn) == 0;
    pthread_attr_destroy(&attr);
    return ok;
  }

 private:
  static void* entry(void* fn) {
    (*static_cast<std::function<void()>*>(fn))();
    return nullptr;
  }

  std::size_t n_ = 0;
  std::size_t bytes_ = 0;
  char* base_ = nullptr;
};

}  // namespace

const MixSpec* find_mix(const std::string& workload) {
  if (workload == kCapture1t.workload) return &kCapture1t;
  if (workload == kContend4t.workload) return &kContend4t;
  return nullptr;
}

std::uint64_t app_seed(std::uint64_t seed, const std::string& app) {
  return cstm::SplitMix64(seed ^ hash_bytes(app.data(), app.size())).next();
}

AppRun run_app_once(const AppSpec& spec, int threads, std::uint64_t seed) {
  AppRun r;
  r.app = spec.name;
  std::unique_ptr<cstm::stamp::App> app = cstm::stamp::make_app(spec.name);
  cstm::stamp::AppParams params;
  params.threads = threads;
  params.seed = app_seed(seed, spec.name);
  params.scale = spec.scale;

  const Clock::time_point s0 = Clock::now();
  app->setup(params);
  r.setup_s = seconds_between(s0, Clock::now());

  const auto n = static_cast<std::size_t>(threads);
  std::vector<Clock::time_point> start(n);
  std::vector<Clock::time_point> end(n);
  std::atomic<bool> threw{false};
  std::barrier ready(threads + 1);
  std::barrier go(threads + 1);
  static WorkerStacks stacks(kMaxWorkers);
  static std::size_t shift = 0;
  ++shift;
  const cstm::TxStats before = cstm::stats_snapshot();
  std::vector<std::function<void()>> bodies;
  bodies.reserve(n);
  std::vector<pthread_t> workers(n);
  for (int tid = 0; tid < threads; ++tid) {
    bodies.emplace_back([&, tid] {
      const auto i = static_cast<std::size_t>(tid);
      // The host-speed loop runs on the thread, and so most likely on the
      // core, that then runs the app; it is outside the timed region.
      if (tid == 0) host_speed().sample();
      ready.arrive_and_wait();
      go.arrive_and_wait();
      start[i] = Clock::now();
      try {
        app->worker(tid);
      } catch (...) {
        threw.store(true);
      }
      end[i] = Clock::now();
    });
    const auto i = static_cast<std::size_t>(tid);
    if (!stacks.start(i, shift, &bodies[i], &workers[i])) {
      std::fprintf(stderr, "capbench: cannot start worker %d\n", tid);
      std::abort();
    }
  }
  ready.arrive_and_wait();  // every worker exists and waits on `go`
  const Clock::time_point release = Clock::now();
  go.arrive_and_wait();
  for (pthread_t& t : workers) pthread_join(t, nullptr);
  r.stats = stats_delta(cstm::stats_snapshot(), before);

  Clock::time_point last = release;
  for (const auto& e : end) last = std::max(last, e);
  r.timed_s = seconds_between(release, last);
  for (std::size_t i = 0; i < n; ++i) {
    r.busy_s.push_back(seconds_between(start[i], end[i]));
    r.wait_s.push_back(seconds_between(end[i], last));
  }

  const Clock::time_point v0 = Clock::now();
  const bool verified = app->verify();
  r.verify_s = seconds_between(v0, Clock::now());
  if (threw.load()) {
    r.error = spec.name + ": a worker threw";
  } else if (!verified) {
    r.error = spec.name + ": verify() failed";
  } else if (threads == 1 && r.stats.aborts != 0) {
    r.error = spec.name + ": aborts at 1 thread";
  }
  r.ok = r.error.empty();
  return r;
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return cstm::SplitMix64(seed ^ (round * 0x9e3779b97f4a7c15ull)).next();
}

MixResult run_mix(const MixSpec& mix, std::uint64_t seed, double seconds) {
  MixResult res;
  cstm::set_global_config(mix.config);
  // Warm-up: untimed, and the first set-up of each app in this process.
  for (const AppSpec& spec : mix.apps) {
    AppRun r = run_app_once(spec, mix.threads, round_seed(seed, 0));
    res.setup_s += r.setup_s;
    if (!r.ok) {
      res.correct = false;
      res.error = r.error;
      res.attempted = res.failed = 1;
      return res;
    }
  }
  const Clock::time_point t0 = Clock::now();
  do {
    const std::uint64_t rs = round_seed(seed, res.rounds + 1);
    for (const AppSpec& spec : mix.apps) {
      AppRun r = run_app_once(spec, mix.threads, rs);
      ++res.attempted;
      if (!r.ok) {
        res.correct = false;
        res.error = r.error;
        res.failed = 1;
        return res;
      }
      res.timed_s += r.timed_s;
      res.stats.add(r.stats);
      res.runs.push_back(std::move(r));
    }
    ++res.rounds;
  } while (seconds_between(t0, Clock::now()) < seconds);
  return res;
}

void stamp_end_to_end(const MixResult& r, Metrics& m) {
  // Latency of one round: the mix's timed app regions, summed. Single app
  // runs are no good here: the mixed apps' run times form one cluster per
  // app, and a percentile that falls between two clusters jumps between them.
  std::vector<double> lat_us;
  const std::size_t apps = r.runs.size() / std::max<std::size_t>(r.rounds, 1);
  for (std::size_t i = 0; i + apps <= r.runs.size(); i += apps) {
    double round_s = 0.0;
    for (std::size_t j = i; j < i + apps; ++j) round_s += r.runs[j].timed_s;
    lat_us.push_back(round_s * 1e6);
  }
  const double ops_per_s = static_cast<double>(r.stats.commits) / r.timed_s;
  const double p50 = percentile(lat_us, 0.50);
  const double p99 = percentile(lat_us, 0.99);
  const double slow = host_speed().slowdown();
  std::printf(
      "# wall clock: setup_s %.6f, ops_per_s %.1f, op_latency_p50_us %.1f, "
      "op_latency_p99_us %.1f; host slowdown %.4f over %zu samples\n",
      r.setup_s, ops_per_s, p50, p99, slow, host_speed().samples());
  // Every round's latency at the quiet host's speed, so that run.py can
  // take the percentiles over the rounds of all its processes.
  std::printf("# op_latency_us");
  for (double x : lat_us) std::printf(" %.3f", x / slow);
  std::printf("\n");
  m.add("setup_s", r.setup_s / slow, "s");
  m.add("ops_per_s", ops_per_s * slow, "ops/s");
  m.add("op_latency_p50_us", p50 / slow, "us");
  m.add("op_latency_p99_us", p99 / slow, "us");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void print_app_table(const MixSpec& mix, const MixResult& r) {
  std::printf("# %s: %zu rounds, %d thread(s); medians per app run\n",
              mix.workload.c_str(), r.rounds, mix.threads);
  std::printf("%-13s %10s %10s %10s %10s %10s %9s %8s %10s %9s\n", "app",
              "setup_s", "app_s", "busy_s", "wait_s", "verify_s", "commits",
              "aborts", "barriers", "elided%");
  for (const AppSpec& spec : mix.apps) {
    std::vector<double> setup, timed, busy, wait, verify;
    cstm::TxStats sum;
    std::size_t n = 0;
    for (const AppRun& a : r.runs) {
      if (a.app != spec.name) continue;
      setup.push_back(a.setup_s);
      timed.push_back(a.timed_s);
      verify.push_back(a.verify_s);
      double b = 0.0;
      double w = 0.0;
      for (double x : a.busy_s) b += x;
      for (double x : a.wait_s) w += x;
      busy.push_back(b / static_cast<double>(a.busy_s.size()));
      wait.push_back(w / static_cast<double>(a.wait_s.size()));
      sum.add(a.stats);
      ++n;
    }
    if (n == 0) continue;
    const double per = 1.0 / static_cast<double>(n);
    std::printf(
        "%-13s %10.6f %10.6f %10.6f %10.6f %10.6f %9.0f %8.0f %10.0f %8.2f%%\n",
        spec.name.c_str(), median(setup), median(timed), median(busy),
        median(wait), median(verify), static_cast<double>(sum.commits) * per,
        static_cast<double>(sum.aborts) * per,
        static_cast<double>(sum.reads + sum.writes) * per, sum.elided_percent());
  }
}

}  // namespace capbench
