// Unit costs of single public calls, from short fixed loops: the price
// tags the traced run multiplies by each layer's counts.
#pragma once

#include <string>

#include "stm/config.hpp"

namespace capbench {

/// Capture-log kinds with a fixed runtime structure, in report order.
inline constexpr cstm::AllocLogKind kLogKinds[3] = {
    cstm::AllocLogKind::kTree, cstm::AllocLogKind::kArray,
    cstm::AllocLogKind::kFilter};

struct UnitCosts {
  // Under the workload's own TxConfig.
  double begin_commit_ns = 0.0;   // an empty top-level transaction
  double alloc_free_ns = 0.0;     // tx_malloc(64) + tx_free in a transaction
  double nested_abort_ns = 0.0;   // a closed-nested transaction that abort_tx()s
  // Under fixed configurations.
  double read_full_ns = 0.0;      // baseline tm_read of shared memory
  double write_full_ns = 0.0;     // baseline tm_write, one orec per store
  double commit_16w_ns = 0.0;     // baseline transaction of 16 stores
  double durable_commit_16w_ns = 0.0;  // the same, durable, on a DurableHeap
  double read_hit_stack_ns = 0.0;      // runtime_rw read of a tx-local slot
  double read_hit_ns[3] = {};   // runtime_rw(log) read of tx_malloc'd memory
  double write_hit_ns[3] = {};  // runtime_rw(log) write of tx_malloc'd memory
  double read_miss_ns[3] = {};  // runtime_rw(log) read of shared memory
};

/// Measures every unit cost. Heap files go to a private directory under
/// @p tmp_parent. Leaves @p workload installed as the global config.
UnitCosts measure_unit_costs(const cstm::TxConfig& workload,
                             const std::string& tmp_parent);

}  // namespace capbench
