#include "unit_costs.hpp"

#include <cstdint>
#include <vector>

#include "durable/durable_heap.hpp"
#include "ledger.hpp"
#include "report.hpp"
#include "stm/stm.hpp"

namespace capbench {

namespace {

constexpr std::size_t kWordsPerLine = 8;
constexpr int kTrials = 7;

std::uint64_t g_sink = 0;  // keeps loop results observable

/// Median over trials of the cost of one op: @p call performs
/// @p ops_per_call ops and is repeated @p calls times per trial.
template <typename F>
double per_op_ns(F&& call, std::size_t ops_per_call, int calls) {
  std::vector<double> trials;
  for (int t = 0; t <= kTrials; ++t) {
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < calls; ++c) call();
    const double ns = seconds_between(t0, Clock::now()) * 1e9;
    if (t > 0) {  // trial 0 warms caches and the descriptor
      trials.push_back(ns / (static_cast<double>(calls) *
                             static_cast<double>(ops_per_call)));
    }
  }
  return median(trials);
}

}  // namespace

UnitCosts measure_unit_costs(const cstm::TxConfig& workload,
                             const std::string& tmp_parent) {
  using cstm::Tx;
  using cstm::TxConfig;
  UnitCosts u;
  // 256 shared words, each on its own cache line (its own orec).
  std::vector<std::uint64_t> shared(256 * kWordsPerLine, 1);
  auto line = [&](std::size_t i) { return &shared[i * kWordsPerLine]; };

  cstm::set_global_config(workload);
  u.begin_commit_ns =
      per_op_ns([] { cstm::atomic([](Tx&) {}); }, 1, 20000);
  u.alloc_free_ns = per_op_ns(
      [] {
        cstm::atomic([](Tx& tx) {
          for (int i = 0; i < 64; ++i) cstm::tx_free(tx, cstm::tx_malloc(tx, 64));
        });
      },
      64, 300);
  u.nested_abort_ns = per_op_ns(
      [&] {
        cstm::atomic([&](Tx&) {
          for (std::size_t i = 0; i < 16; ++i) {
            cstm::atomic([&](Tx& in) {
              cstm::tm_write(in, line(i), std::uint64_t{i});
              cstm::abort_tx();
            });
          }
        });
      },
      16, 200);

  cstm::set_global_config(TxConfig::baseline());
  u.read_full_ns = per_op_ns(
      [&] {
        cstm::atomic([&](Tx& tx) {
          std::uint64_t s = 0;
          for (std::size_t i = 0; i < 256; ++i) s += cstm::tm_read(tx, line(i));
          g_sink += s;
        });
      },
      256, 400);
  u.write_full_ns = per_op_ns(
      [&] {
        cstm::atomic([&](Tx& tx) {
          for (std::size_t i = 0; i < 256; ++i) cstm::tm_write(tx, line(i), i);
        });
      },
      256, 400);
  u.commit_16w_ns = per_op_ns(
      [&] {
        cstm::atomic([&](Tx& tx) {
          for (std::size_t i = 0; i < 16; ++i) cstm::tm_write(tx, line(i), i);
        });
      },
      1, 5000);

  for (int k = 0; k < 3; ++k) {
    cstm::set_global_config(TxConfig::runtime_rw(kLogKinds[k]));
    if (k == 0) {
      u.read_hit_stack_ns = per_op_ns(
          [] {
            cstm::atomic([](Tx& tx) {
              std::uint64_t local[64] = {};
              std::uint64_t s = 0;
              for (int pass = 0; pass < 8; ++pass) {
                for (auto& x : local) s += cstm::tm_read(tx, &x, cstm::kAutoSite);
              }
              g_sink += s;
            });
          },
          512, 400);
    }
    u.read_hit_ns[k] = per_op_ns(
        [] {
          cstm::atomic([](Tx& tx) {
            auto* b = static_cast<std::uint64_t*>(cstm::tx_malloc(tx, 128 * 8));
            std::uint64_t s = 0;
            for (int pass = 0; pass < 4; ++pass) {
              for (std::size_t i = 0; i < 128; ++i) {
                s += cstm::tm_read(tx, &b[i], cstm::kAutoSite);
              }
            }
            g_sink += s;
            cstm::tx_free(tx, b);
          });
        },
        512, 400);
    u.write_hit_ns[k] = per_op_ns(
        [] {
          cstm::atomic([](Tx& tx) {
            auto* b = static_cast<std::uint64_t*>(cstm::tx_malloc(tx, 128 * 8));
            for (int pass = 0; pass < 4; ++pass) {
              for (std::size_t i = 0; i < 128; ++i) {
                cstm::tm_write(tx, &b[i], i, cstm::kAutoSite);
              }
            }
            cstm::tx_free(tx, b);
          });
        },
        512, 400);
    u.read_miss_ns[k] = per_op_ns(
        [&] {
          cstm::atomic([&](Tx& tx) {
            void* blocks[4];
            for (auto& b : blocks) b = cstm::tx_malloc(tx, 64);
            std::uint64_t s = 0;
            for (std::size_t i = 0; i < 256; ++i) {
              s += cstm::tm_read(tx, line(i), cstm::kAutoSite);
            }
            g_sink += s;
            for (auto* b : blocks) cstm::tx_free(tx, b);
          });
        },
        256, 400);
  }

  // A 16-store durable commit into a DurableHeap's data area: every store
  // is redo-logged, flushed and written back.
  {
    TempDir tmp(tmp_parent);
    cstm::dur::DurableHeap heap;
    cstm::dur::HeapOptions opt;
    opt.data_bytes = 64 * 1024;
    opt.log_bytes = 64 * 1024;
    if (tmp.ok() && heap.open(tmp.path() + "/unit.heap", opt)) {
      heap.activate();
      cstm::set_global_config(TxConfig::baseline().with_durable());
      std::uint64_t* cells = nullptr;
      cstm::atomic([&](Tx& tx) {
        cells = static_cast<std::uint64_t*>(heap.alloc(tx, 16 * 64));
      });
      u.durable_commit_16w_ns = per_op_ns(
          [&] {
            cstm::atomic([&](Tx& tx) {
              for (std::size_t i = 0; i < 16; ++i) {
                cstm::tm_write(tx, cells + i * kWordsPerLine, i);
              }
            });
          },
          1, 2000);
      heap.deactivate();
      heap.close();
    }
  }

  cstm::set_global_config(workload);
  return u;
}

}  // namespace capbench
