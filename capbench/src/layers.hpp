// The traced run's per-layer metrics and its time attribution: each
// layer's counts times its unit cost, beside the measured worker time.
#pragma once

#include "ledger.hpp"
#include "report.hpp"
#include "stamp_mix.hpp"
#include "stm/config.hpp"
#include "unit_costs.hpp"

namespace capbench {

/// The application layer's spans, as medians per round, plus the summed
/// worker time the attribution divides up.
struct AppSpans {
  double setup_s = 0.0;        // a round's set-up calls
  double worker_busy_s = 0.0;  // a round's mean worker busy time
  double worker_wait_s = 0.0;  // a round's mean wait for the last worker
  double busy_total_s = 0.0;   // all workers, all traced rounds
};

AppSpans stamp_spans(const MixResult& r, std::size_t apps_per_round);
AppSpans ledger_spans(const LedgerResult& r);

struct TraceInputs {
  AppSpans spans;
  cstm::TxStats stats;  // the workload's TxStats over its traced rounds
  std::size_t rounds = 0;
  cstm::TxConfig config;
  const LedgerResult* batch = nullptr;  // traced txbatch/durable rounds
  bool batch_is_workload = false;       // else: the fixed probe stream
  UnitCosts unit;
  double overhead_pct = 0.0;
};

/// Adds every per-layer metric to @p m and prints the attribution table.
void layer_metrics(const TraceInputs& in, Metrics& m);

}  // namespace capbench
