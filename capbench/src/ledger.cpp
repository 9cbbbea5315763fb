#include "ledger.hpp"

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "host_speed.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace capbench {

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kWords = kLine / sizeof(std::uint64_t);
constexpr int kPayloadWords = 5;

// Per-thread state a request body reports into (plain stores: a body runs
// on its owner's thread only).
struct ThreadTally {
  std::uint64_t body_runs = 0;
  double body_s = 0.0;
};

// The data area (working copy) and the root slots.
std::uint64_t hash_image(cstm::dur::DurableHeap& h) {
  std::uint64_t x = hash_bytes(h.data(), h.user_bytes());
  for (std::size_t i = 0; i < cstm::dur::DurableHeap::kRootSlots; ++i) {
    x = x * 1099511628211ull ^ *h.root_slot(i);
  }
  return x;
}

}  // namespace

std::size_t LedgerSpec::data_bytes() const {
  const std::size_t lines =
      1 + accounts + static_cast<std::size_t>(threads) +
      static_cast<std::size_t>(threads) * requests_per_thread;
  return (lines + 16) * kLine;
}

cstm::TxConfig ledger_config() {
  return cstm::TxConfig::durable_rw(cstm::AllocLogKind::kFilter);
}

LedgerSpec ledger_workload() { return LedgerSpec{}; }

LedgerSpec ledger_probe() {
  LedgerSpec s;
  s.threads = 1;
  s.requests_per_thread = 4096;
  return s;
}

std::vector<std::vector<Request>> make_requests(const LedgerSpec& spec,
                                                std::uint64_t seed) {
  std::vector<std::vector<Request>> out(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    cstm::Xoshiro256 rng(cstm::SplitMix64(seed * 31 + static_cast<std::uint64_t>(t)).next());
    auto& reqs = out[static_cast<std::size_t>(t)];
    reqs.reserve(spec.requests_per_thread);
    std::uint64_t appends = 0;
    for (std::size_t i = 0; i < spec.requests_per_thread; ++i) {
      const std::uint64_t roll = rng.below(100);
      Request r;
      if (roll < spec.transfer_pct) {
        r.kind = ReqKind::kTransfer;
        r.from = static_cast<std::uint32_t>(rng.below(spec.accounts));
        r.to = static_cast<std::uint32_t>(rng.below(spec.accounts - 1));
        if (r.to >= r.from) ++r.to;  // distinct accounts
        r.arg = rng.between(1, spec.max_amount);
      } else if (roll < spec.transfer_pct + spec.append_pct) {
        r.kind = ReqKind::kAppend;
        r.arg = appends++;
      } else {
        r.kind = ReqKind::kAudit;
      }
      reqs.push_back(r);
    }
  }
  return out;
}

std::uint64_t append_payload(std::uint64_t seed, int tid, std::uint64_t k,
                             int w) {
  return cstm::SplitMix64(seed ^ (k * 0x100000001b3ull) ^
                          (static_cast<std::uint64_t>(tid) << 56) ^
                          static_cast<std::uint64_t>(w))
      .next();
}

Ledger::Ledger(const LedgerSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

Ledger::~Ledger() { close(); }

std::uint64_t* Ledger::balance(std::size_t i) { return accounts_ + i * kWords; }

std::uint64_t* Ledger::head(int tid) {
  return dir_ + static_cast<std::size_t>(tid) * kWords;
}

bool Ledger::create(const std::string& path, std::string* why) {
  path_ = path;
  cstm::dur::HeapOptions opt;
  opt.data_bytes = spec_.data_bytes();
  opt.log_bytes = spec_.log_bytes();
  const Clock::time_point t0 = Clock::now();
  cstm::dur::OpenResult res;
  if (!heap_.open(path, opt, &res) || !res.created) {
    *why = "cannot create heap file " + path;
    return false;
  }
  open_s = seconds_between(t0, Clock::now());

  const Clock::time_point p0 = Clock::now();
  heap_.activate();
  cstm::atomic([&](cstm::Tx& tx) {
    auto* acc = static_cast<std::uint64_t*>(
        heap_.alloc(tx, spec_.accounts * kLine));
    auto* dir = static_cast<std::uint64_t*>(
        heap_.alloc(tx, static_cast<std::size_t>(spec_.threads) * kLine));
    for (std::size_t i = 0; i < spec_.accounts; ++i) {
      cstm::tm_write(tx, acc + i * kWords, spec_.initial_balance);
    }
    cstm::tm_write(tx, heap_.root_slot(0), heap_.offset_of(acc));
    cstm::tm_write(tx, heap_.root_slot(1), heap_.offset_of(dir));
    accounts_ = acc;
    dir_ = dir;
  });
  populate_s = seconds_between(p0, Clock::now());
  return true;
}

LedgerRun Ledger::run(const std::vector<std::vector<Request>>& requests,
                      bool traced) {
  const auto n = static_cast<std::size_t>(spec_.threads);
  LedgerRun out;
  out.audit_sums.resize(n);
  std::vector<Clock::time_point> start(n);
  std::vector<Clock::time_point> end(n);
  std::vector<LedgerRun> part(n);  // per-thread spans and counts
  std::atomic<bool> threw{false};
  std::barrier ready(spec_.threads + 1);
  std::barrier go(spec_.threads + 1);
  const cstm::TxStats before = cstm::stats_snapshot();

  auto worker = [&](int tid) {
    const auto me = static_cast<std::size_t>(tid);
    const std::vector<Request>& reqs = requests[me];
    LedgerRun& p = part[me];
    std::vector<std::uint64_t>& audits = out.audit_sums[me];
    std::size_t audit_count = 0;
    for (const Request& r : reqs) audit_count += r.kind == ReqKind::kAudit;
    audits.assign(audit_count, 0);
    p.latency_us.reserve(reqs.size());
    ThreadTally tally;
    cstm::txbatch::BatcherOptions opts;
    opts.max_batch = spec_.batch;
    cstm::txbatch::Batcher batcher(opts);
    struct Pending {
      Clock::time_point t;
      cstm::txbatch::Completion c;
    };
    std::deque<Pending> pending;
    std::uint64_t* const accounts = accounts_;
    std::uint64_t* const my_head = head(tid);
    cstm::dur::DurableHeap* const heap = &heap_;
    const std::uint64_t seed = seed_;
    const std::size_t accounts_n = spec_.accounts;

    // Settles the requests the last call ran: the queue is FIFO, so they
    // are the oldest entries of `pending`.
    auto settle = [&](Clock::time_point now) {
      while (pending.size() > batcher.pending()) {
        const Pending& q = pending.front();
        if (q.c.committed()) {
          ++p.committed;
          p.latency_us.push_back(
              std::chrono::duration<double, std::micro>(now - q.t).count());
        } else {
          ++p.failed;
        }
        pending.pop_front();
      }
    };

    ready.arrive_and_wait();
    go.arrive_and_wait();
    start[me] = Clock::now();
    try {
      std::size_t audit_i = 0;
      for (const Request& r : reqs) {
        std::function<void(cstm::Tx&)> body;
        switch (r.kind) {
          case ReqKind::kTransfer:
            body = [accounts, r](cstm::Tx& tx) {
              std::uint64_t* a = accounts + r.from * kWords;
              std::uint64_t* b = accounts + r.to * kWords;
              const std::uint64_t va = cstm::tm_read(tx, a);
              if (va < r.arg) return;  // too little money: a no-op commit
              const std::uint64_t vb = cstm::tm_read(tx, b);
              cstm::tm_write(tx, a, va - r.arg);
              cstm::tm_write(tx, b, vb + r.arg);
            };
            break;
          case ReqKind::kAppend:
            body = [heap, my_head, tid, seed, k = r.arg](cstm::Tx& tx) {
              auto* rec = static_cast<std::uint64_t*>(heap->alloc(tx, kLine));
              cstm::tm_write(tx, rec + 0, cstm::tm_read(tx, my_head));
              cstm::tm_write(tx, rec + 1, static_cast<std::uint64_t>(tid));
              cstm::tm_write(tx, rec + 2, k);
              for (int w = 0; w < kPayloadWords; ++w) {
                cstm::tm_write(tx, rec + 3 + w,
                               append_payload(seed, tid, k, w));
              }
              cstm::tm_write(tx, my_head, heap->offset_of(rec));
            };
            break;
          case ReqKind::kAudit:
            body = [accounts, accounts_n,
                    slot = &audits[audit_i++]](cstm::Tx& tx) {
              std::uint64_t sum = 0;
              for (std::size_t i = 0; i < accounts_n; ++i) {
                sum += cstm::tm_read(tx, accounts + i * kWords);
              }
              *slot = sum;  // the committed execution writes last
            };
            break;
        }
        std::function<void(cstm::Tx&)> fn;
        if (traced) {
          fn = [&tally, b = std::move(body)](cstm::Tx& tx) {
            const Clock::time_point b0 = Clock::now();
            ++tally.body_runs;
            b(tx);
            tally.body_s += seconds_between(b0, Clock::now());
          };
        } else {
          fn = [&tally, b = std::move(body)](cstm::Tx& tx) {
            ++tally.body_runs;
            b(tx);
          };
        }
        const double body_before = tally.body_s;
        const std::uint64_t batches_before = batcher.stats().batches;
        const Clock::time_point t0 = Clock::now();
        pending.push_back(Pending{t0, batcher.enqueue(std::move(fn))});
        const Clock::time_point t1 = Clock::now();
        if (traced) {
          if (batcher.stats().batches != batches_before) {
            const double span = seconds_between(t0, t1);
            p.flush_us.push_back(span * 1e6);
            p.flush_overhead_s += span - (tally.body_s - body_before);
          } else {
            p.enqueue_s += seconds_between(t0, t1);
            ++p.enqueue_calls;
          }
        }
        settle(t1);
      }
      while (batcher.pending() > 0) {
        const double body_before = tally.body_s;
        const Clock::time_point t0 = Clock::now();
        batcher.flush();
        const Clock::time_point t1 = Clock::now();
        if (traced) {
          const double span = seconds_between(t0, t1);
          p.flush_us.push_back(span * 1e6);
          p.flush_overhead_s += span - (tally.body_s - body_before);
        }
        settle(t1);
      }
    } catch (...) {
      threw.store(true);
    }
    end[me] = Clock::now();
    p.attempted = reqs.size();
    p.failed += pending.size();  // unsettled after an escaping exception
    p.body_runs = tally.body_runs;
  };

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (int tid = 0; tid < spec_.threads; ++tid) workers.emplace_back(worker, tid);
  ready.arrive_and_wait();
  const Clock::time_point release = Clock::now();
  go.arrive_and_wait();
  for (std::thread& t : workers) t.join();
  out.stats = stats_delta(cstm::stats_snapshot(), before);

  Clock::time_point last = release;
  for (const auto& e : end) last = std::max(last, e);
  out.timed_s = seconds_between(release, last);
  for (std::size_t i = 0; i < n; ++i) {
    const LedgerRun& p = part[i];
    out.busy_s.push_back(seconds_between(start[i], end[i]));
    out.wait_s.push_back(seconds_between(end[i], last));
    out.latency_us.insert(out.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
    out.attempted += p.attempted;
    out.committed += p.committed;
    out.failed += p.failed;
    out.body_runs += p.body_runs;
    out.enqueue_s += p.enqueue_s;
    out.enqueue_calls += p.enqueue_calls;
    out.flush_us.insert(out.flush_us.end(), p.flush_us.begin(),
                        p.flush_us.end());
    out.flush_overhead_s += p.flush_overhead_s;
  }
  if (threw.load()) out.failed = out.attempted - out.committed;
  return out;
}

bool Ledger::check_image(cstm::dur::DurableHeap& h,
                         const std::vector<std::vector<Request>>& requests,
                         std::string* why) {
  const std::uint64_t acc_off = *h.root_slot(0);
  const std::uint64_t dir_off = *h.root_slot(1);
  if (acc_off == 0 || dir_off == 0) {
    *why = "root slots are empty";
    return false;
  }
  const auto* acc = static_cast<const std::uint64_t*>(h.at(acc_off));
  const auto* dir = static_cast<const std::uint64_t*>(h.at(dir_off));
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < spec_.accounts; ++i) sum += acc[i * kWords];
  if (sum != spec_.total()) {
    *why = strf("balances sum to %llu, expected %llu",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(spec_.total()));
    return false;
  }
  for (int t = 0; t < spec_.threads; ++t) {
    std::uint64_t appends = 0;
    for (const Request& r : requests[static_cast<std::size_t>(t)]) {
      appends += r.kind == ReqKind::kAppend;
    }
    // The chain runs newest first: k = appends-1 down to 0.
    std::uint64_t off = dir[static_cast<std::size_t>(t) * kWords];
    std::uint64_t k = appends;
    while (off != 0) {
      if (k == 0 || !h.contains(h.at(off), kLine)) {
        *why = strf("thread %d: chain longer than its %llu appends", t,
                    static_cast<unsigned long long>(appends));
        return false;
      }
      --k;
      const auto* rec = static_cast<const std::uint64_t*>(h.at(off));
      bool same = rec[1] == static_cast<std::uint64_t>(t) && rec[2] == k;
      for (int w = 0; same && w < kPayloadWords; ++w) {
        same = rec[3 + w] == append_payload(seed_, t, k, w);
      }
      if (!same) {
        *why = strf("thread %d: record %llu holds k=%llu or a wrong payload",
                    t, static_cast<unsigned long long>(k),
                    static_cast<unsigned long long>(rec[2]));
        return false;
      }
      off = rec[0];
    }
    if (k != 0) {
      *why = strf("thread %d: chain misses %llu of %llu appends", t,
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(appends));
      return false;
    }
  }
  return true;
}

bool Ledger::check_live(const std::vector<std::vector<Request>>& requests,
                        const LedgerRun& run, std::string* why) {
  if (run.failed != 0 || run.committed != run.attempted) {
    *why = strf("%llu of %llu requests failed (%llu committed)",
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.committed));
    return false;
  }
  for (std::size_t t = 0; t < run.audit_sums.size(); ++t) {
    for (std::uint64_t s : run.audit_sums[t]) {
      if (s != spec_.total()) {
        *why = strf("thread %zu: an audit saw %llu, expected %llu", t,
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(spec_.total()));
        return false;
      }
    }
  }
  return check_image(heap_, requests, why);
}

std::uint64_t Ledger::image_hash() { return hash_image(heap_); }

void Ledger::close() {
  if (cstm::dur::DurableHeap::active() == &heap_) heap_.deactivate();
  heap_.close();
  accounts_ = nullptr;
  dir_ = nullptr;
}

bool Ledger::reopen_and_check(
    const std::vector<std::vector<Request>>& requests,
    std::uint64_t live_hash, std::string* why) {
  close();
  const Clock::time_point t0 = Clock::now();
  if (!heap_.open(path_)) {
    *why = "cannot reopen " + path_;
    return false;
  }
  reopen_s = seconds_between(t0, Clock::now());
  bool ok = check_image(heap_, requests, why);
  if (ok && hash_image(heap_) != live_hash) {
    *why = "the reopened data area differs from the live working copy";
    ok = false;
  }
  heap_.close();
  return ok;
}

TempDir::TempDir(const std::string& parent) {
  std::string tmpl = parent + "/ledger-XXXXXX";
  if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  if (DIR* d = ::opendir(path_.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((path_ + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path_.c_str());
}

LedgerResult run_ledger(const LedgerSpec& spec, std::uint64_t seed,
                        double seconds, bool traced,
                        const std::string& tmp_parent) {
  LedgerResult res;
  cstm::set_global_config(ledger_config());
  TempDir tmp(tmp_parent);
  if (!tmp.ok()) {
    res.correct = false;
    res.error = "cannot create a temporary directory under " + tmp_parent;
    return res;
  }
  const std::string path = tmp.path() + "/ledger.heap";
  const auto requests = make_requests(spec, seed);

  // One round: fresh heap, populate, run, check live, close, reopen, check.
  auto round = [&](bool timed) -> bool {
    host_speed().sample();
    Ledger ledger(spec, seed);
    std::string why;
    if (!ledger.create(path, &why)) {
      res.correct = false;
      res.error = why;
      return false;
    }
    LedgerRun run = ledger.run(requests, traced && timed);
    bool ok = ledger.check_live(requests, run, &why);
    if (ok) ok = ledger.reopen_and_check(requests, ledger.image_hash(), &why);
    ledger.close();
    ::unlink(path.c_str());
    if (!timed) {
      res.setup_s = ledger.open_s + ledger.populate_s;
    } else {
      res.attempted += run.attempted;
      res.failed += run.failed;
      res.committed += run.committed;
      res.timed_s += run.timed_s;
      res.stats.add(run.stats);
      res.p50_us.push_back(percentile(run.latency_us, 0.50));
      res.p99_us.push_back(percentile(run.latency_us, 0.99));
      res.open_s.push_back(ledger.open_s);
      res.reopen_s.push_back(ledger.reopen_s);
      res.setup_round_s.push_back(ledger.open_s + ledger.populate_s);
      ++res.rounds;
      if (traced) {
        run.latency_us.clear();
        run.latency_us.shrink_to_fit();
        res.runs.push_back(std::move(run));
      }
    }
    if (!ok) {
      res.correct = false;
      res.error = why;
    }
    return ok;
  };

  if (!round(false)) return res;  // warm-up
  const Clock::time_point t0 = Clock::now();
  do {
    if (!round(true)) return res;
  } while (seconds_between(t0, Clock::now()) < seconds);
  return res;
}

void ledger_end_to_end(const LedgerResult& r, Metrics& m) {
  const double ops_per_s = static_cast<double>(r.committed) / r.timed_s;
  const double p50 = median(r.p50_us);
  const double p99 = median(r.p99_us);
  const double slow = host_speed().slowdown();
  std::printf(
      "# wall clock: setup_s %.6f, ops_per_s %.1f, op_latency_p50_us %.4f, "
      "op_latency_p99_us %.4f; host slowdown %.4f over %zu samples\n",
      r.setup_s, ops_per_s, p50, p99, slow, host_speed().samples());
  m.add("setup_s", r.setup_s / slow, "s");
  m.add("ops_per_s", ops_per_s * slow, "ops/s");
  m.add("op_latency_p50_us", p50 / slow, "us");
  m.add("op_latency_p99_us", p99 / slow, "us");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace capbench
