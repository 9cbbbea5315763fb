#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace capbench {

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

int log_index(cstm::AllocLogKind k) {
  for (int i = 0; i < 3; ++i) {
    if (kLogKinds[i] == k) return i;
  }
  return 0;
}

}  // namespace

AppSpans stamp_spans(const MixResult& r, std::size_t apps_per_round) {
  AppSpans s;
  std::vector<double> setup, busy, wait;
  for (std::size_t i = 0; i + apps_per_round <= r.runs.size();
       i += apps_per_round) {
    double su = 0.0, bu = 0.0, wa = 0.0;
    for (std::size_t j = i; j < i + apps_per_round; ++j) {
      const AppRun& a = r.runs[j];
      su += a.setup_s;
      bu += mean(a.busy_s);
      wa += mean(a.wait_s);
      s.busy_total_s += sum(a.busy_s);
    }
    setup.push_back(su);
    busy.push_back(bu);
    wait.push_back(wa);
  }
  s.setup_s = median(setup);
  s.worker_busy_s = median(busy);
  s.worker_wait_s = median(wait);
  return s;
}

AppSpans ledger_spans(const LedgerResult& r) {
  AppSpans s;
  std::vector<double> busy, wait;
  for (const LedgerRun& run : r.runs) {
    busy.push_back(mean(run.busy_s));
    wait.push_back(mean(run.wait_s));
    s.busy_total_s += sum(run.busy_s);
  }
  s.setup_s = median(r.setup_round_s);
  s.worker_busy_s = median(busy);
  s.worker_wait_s = median(wait);
  return s;
}

void layer_metrics(const TraceInputs& in, Metrics& m) {
  const cstm::TxStats& s = in.stats;
  const UnitCosts& u = in.unit;
  const double rounds = static_cast<double>(std::max<std::size_t>(in.rounds, 1));
  const auto commits = static_cast<double>(s.commits);
  const std::uint64_t accesses = s.reads + s.writes;

  m.add("app.setup_s", in.spans.setup_s, "s");
  m.add("app.worker_busy_s", in.spans.worker_busy_s, "s");
  m.add("app.worker_wait_s", in.spans.worker_wait_s, "s");

  m.add("stm.commits", commits / rounds, "count");
  m.add("stm.barriers_per_commit", ratio(static_cast<double>(accesses), commits),
        "count");
  m.add("stm.full_barrier_pct", accesses == 0 ? 0.0 : 100.0 - s.elided_percent(),
        "%");
  m.add("stm.read_full_ns", u.read_full_ns, "ns");
  m.add("stm.write_full_ns", u.write_full_ns, "ns");
  m.add("stm.lazy_revalidations_per_commit",
        ratio(static_cast<double>(s.lazy_revalidations), commits), "count");
  m.add("stm.clock_reservations_per_kcommit",
        1000.0 * ratio(static_cast<double>(s.clock_reservations), commits),
        "count");
  m.add("stm.write_own_fast_pct", pct(s.write_own_fast, s.writes), "%");
  m.add("stm.begin_commit_ns", u.begin_commit_ns, "ns");
  m.add("stm.commit_16w_ns", u.commit_16w_ns, "ns");
  m.add("stm.aborts_per_commit", s.abort_to_commit_ratio(), "count");
  m.add("stm.cm_aborts.backoff", static_cast<double>(s.cm_aborts_backoff) / rounds,
        "count");
  m.add("stm.nested_abort_ns", u.nested_abort_ns, "ns");

  m.add("capture.elided_pct.stack",
        pct(s.read_elided_stack + s.write_elided_stack, accesses), "%");
  m.add("capture.elided_pct.heap",
        pct(s.read_elided_heap + s.write_elided_heap, accesses), "%");
  m.add("capture.elided_pct.private",
        pct(s.read_elided_private + s.write_elided_private, accesses), "%");
  m.add("capture.elided_pct.static",
        pct(s.read_elided_static + s.write_elided_static, accesses), "%");
  m.add("capture.hit_pct", s.capture_hit_percent(), "%");
  m.add("capture.array_overflow_pct", s.capture_overflow_percent(), "%");
  m.add("capture.read_hit_ns.stack", u.read_hit_stack_ns, "ns");
  static const char* const kNames[3] = {"tree", "array", "filter"};
  for (int k = 0; k < 3; ++k) {
    m.add(std::string("capture.read_hit_ns.") + kNames[k], u.read_hit_ns[k], "ns");
  }
  for (int k = 0; k < 3; ++k) {
    m.add(std::string("capture.write_hit_ns.") + kNames[k], u.write_hit_ns[k], "ns");
  }
  for (int k = 0; k < 3; ++k) {
    m.add(std::string("capture.read_miss_ns.") + kNames[k], u.read_miss_ns[k], "ns");
  }

  m.add("txmalloc.allocs_per_commit",
        ratio(static_cast<double>(s.tx_allocs), commits), "count");
  m.add("txmalloc.frees_per_commit",
        ratio(static_cast<double>(s.tx_frees), commits), "count");
  m.add("txmalloc.alloc_free_ns", u.alloc_free_ns, "ns");

  // txbatch and durable: the workload's own rounds on durable-ledger, the
  // fixed probe stream elsewhere.
  const LedgerResult& b = *in.batch;
  const cstm::TxStats& bs = b.stats;
  const double b_rounds = static_cast<double>(std::max<std::size_t>(b.rounds, 1));
  double enqueue_s = 0.0, overhead_s = 0.0;
  std::uint64_t enqueue_calls = 0, body_runs = 0, attempted = 0;
  std::vector<double> flush_us;
  for (const LedgerRun& run : b.runs) {
    enqueue_s += run.enqueue_s;
    enqueue_calls += run.enqueue_calls;
    body_runs += run.body_runs;
    attempted += run.attempted;
    overhead_s += run.flush_overhead_s;
    flush_us.insert(flush_us.end(), run.flush_us.begin(), run.flush_us.end());
  }
  const auto flushes = static_cast<double>(flush_us.size());
  const auto dcommits = static_cast<double>(bs.durable_commits);
  m.add("txbatch.ops_per_flush",
        ratio(static_cast<double>(bs.batch_ops), static_cast<double>(bs.batch_flushes)),
        "count");
  m.add("txbatch.compensations",
        static_cast<double>(bs.batch_op_compensations) / b_rounds, "count");
  m.add("txbatch.body_runs_per_op",
        ratio(static_cast<double>(body_runs), static_cast<double>(attempted)),
        "count");
  m.add("txbatch.enqueue_us",
        1e6 * ratio(enqueue_s, static_cast<double>(enqueue_calls)), "us");
  m.add("txbatch.flush_us.p50", percentile(flush_us, 0.50), "us");
  m.add("txbatch.flush_us.p99", percentile(flush_us, 0.99), "us");
  m.add("txbatch.flush_overhead_us", 1e6 * ratio(overhead_s, flushes), "us");

  m.add("durable.pwbs_per_commit",
        ratio(static_cast<double>(bs.durable_pwbs), dcommits), "count");
  m.add("durable.pfences_per_commit",
        ratio(static_cast<double>(bs.durable_pfences), dcommits), "count");
  m.add("durable.log_bytes_per_commit",
        ratio(static_cast<double>(bs.durable_log_bytes), dcommits), "B");
  m.add("durable.stores_logged_per_op",
        ratio(static_cast<double>(bs.durable_stores_logged),
              static_cast<double>(attempted)),
        "count");
  m.add("durable.flushes_elided_pct", bs.flushes_elided_percent(), "%");
  m.add("durable.captured_writebacks_per_commit",
        ratio(static_cast<double>(bs.durable_captured_writebacks), dcommits),
        "count");
  m.add("durable.open_s", median(b.open_s), "s");
  m.add("durable.commit_16w_ns", u.durable_commit_16w_ns, "ns");

  // Attribution: count x unit cost per layer, against the worker time.
  const bool runtime = in.config.any_read_check();
  const int li = log_index(in.config.alloc_log);
  const double probe_ns = runtime ? u.read_miss_ns[li] - u.read_full_ns : 0.0;
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  struct Row {
    const char* layer;
    double count;
    double unit_ns;
  };
  const std::uint64_t other_elided =
      s.write_elided_stack + s.read_elided_private + s.write_elided_private +
      s.read_elided_static + s.write_elided_static;
  std::vector<Row> rows = {
      {"stm begin+commit", commits, u.begin_commit_ns},
      {"stm full reads", n(s.reads - s.read_elided()),
       runtime ? u.read_miss_ns[li] : u.read_full_ns},
      {"stm full writes", n(s.writes - s.write_elided()),
       u.write_full_ns + probe_ns},
      {"capture stack reads", n(s.read_elided_stack), u.read_hit_stack_ns},
      {"capture heap reads", n(s.read_elided_heap), u.read_hit_ns[li]},
      {"capture heap writes", n(s.write_elided_heap), u.write_hit_ns[li]},
      {"capture other elided", n(other_elided), u.read_hit_stack_ns},
      {"txmalloc alloc+free", n(s.tx_allocs), u.alloc_free_ns},
      {"durable commit extra", n(s.durable_commits),
       std::max(0.0, u.durable_commit_16w_ns - u.commit_16w_ns)},
  };
  if (in.batch_is_workload) {
    rows.push_back({"txbatch enqueue", n(enqueue_calls),
                    1e9 * ratio(enqueue_s, n(enqueue_calls))});
  }
  const double busy = in.spans.busy_total_s;
  std::printf("# attribution: count x unit cost vs worker busy time %.6f s\n",
              busy);
  std::printf("%-22s %14s %10s %12s %8s\n", "layer", "count", "unit_ns",
              "seconds", "share");
  double attributed = 0.0;
  for (const Row& r : rows) {
    const double secs = r.count * r.unit_ns * 1e-9;
    attributed += secs;
    std::printf("%-22s %14.0f %10.2f %12.6f %7.2f%%\n", r.layer, r.count,
                r.unit_ns, secs, 100.0 * ratio(secs, busy));
  }
  std::printf("%-22s %14s %10s %12.6f %7.2f%%\n", "unattributed", "", "",
              busy - attributed, 100.0 * ratio(busy - attributed, busy));
  m.add("trace.unattributed_pct", 100.0 * ratio(busy - attributed, busy), "%");
  m.add("trace.overhead_pct", in.overhead_pct, "%");
}

}  // namespace capbench
