// durable-ledger: the benchmark's own request stream over a DurableHeap.
//
// Heap layout (every cell a u64 on its own cache line unless noted, so one
// orec guards one account or one chain head):
//   root slot 0: offset of the account block (accounts x 64 B, balance at +0)
//   root slot 1: offset of the chain directory (threads x 64 B, head at +0)
//   record (64 B, from DurableHeap::alloc): next offset, tid, k, payload[5]
//
// Three request kinds: a transfer between two accounts (a no-op when the
// source holds too little), an append of a record to the issuing thread's
// chain, and a read-only audit that sums every balance. Each worker thread
// feeds its requests through its own txbatch::Batcher.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "durable/durable_heap.hpp"
#include "report.hpp"
#include "stm/config.hpp"
#include "stm/stats.hpp"

namespace capbench {

struct LedgerSpec {
  int threads = 4;
  std::size_t accounts = 256;
  std::size_t requests_per_thread = 40000;
  std::size_t batch = 8;
  unsigned transfer_pct = 70;  // of requests; appends take append_pct,
  unsigned append_pct = 26;    // audits the rest
  std::uint64_t initial_balance = 1000;
  std::uint64_t max_amount = 300;

  /// Data area: every account and chain head, plus room for every request
  /// being an append.
  std::size_t data_bytes() const;
  std::size_t log_bytes() const { return std::size_t{1} << 20; }
  std::uint64_t total() const { return initial_balance * accounts; }
};

/// The ledger's TxConfig: durable, with runtime capture checks over the
/// filter log.
cstm::TxConfig ledger_config();

/// The durable-ledger workload as measured.
LedgerSpec ledger_workload();

/// The short single-thread stream a traced run of a STAMP workload uses to
/// measure the txbatch and durable layers, which those workloads never run.
LedgerSpec ledger_probe();

enum class ReqKind : std::uint8_t { kTransfer, kAppend, kAudit };

struct Request {
  ReqKind kind = ReqKind::kTransfer;
  std::uint32_t from = 0;  // transfer source
  std::uint32_t to = 0;    // transfer destination
  std::uint64_t arg = 0;   // transfer amount, or the append's index k
};

/// Each thread's requests, drawn from @p seed.
std::vector<std::vector<Request>> make_requests(const LedgerSpec& spec,
                                                std::uint64_t seed);

/// Payload word @p w of thread @p tid's @p k-th append.
std::uint64_t append_payload(std::uint64_t seed, int tid, std::uint64_t k,
                             int w);

/// What one timed pass over the requests measured.
struct LedgerRun {
  double timed_s = 0.0;  // release of the workers to the end of the last
  std::vector<double> busy_s;
  std::vector<double> wait_s;
  std::vector<double> latency_us;  // enqueue → end of the committing call
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::vector<std::vector<std::uint64_t>> audit_sums;  // per thread
  cstm::TxStats stats;
  std::uint64_t body_runs = 0;
  // Spans, recorded only when traced.
  double enqueue_s = 0.0;  // enqueue calls that did not flush
  std::uint64_t enqueue_calls = 0;
  std::vector<double> flush_us;  // calls that flushed (enqueue or drain)
  double flush_overhead_s = 0.0; // flush spans minus the bodies inside
};

class Ledger {
 public:
  Ledger(const LedgerSpec& spec, std::uint64_t seed);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Creates the heap file at @p path and populates it, in one durable
  /// transaction, under the current global TxConfig. Sets open_s and
  /// populate_s.
  bool create(const std::string& path, std::string* why);

  /// Runs every thread's requests once, timed, on threads of its own.
  LedgerRun run(const std::vector<std::vector<Request>>& requests,
                bool traced);

  /// Balances, audits, chains and request outcomes on the live heap.
  bool check_live(const std::vector<std::vector<Request>>& requests,
                  const LedgerRun& run, std::string* why);

  /// Hash of the live data area (working copy) and root slots.
  std::uint64_t image_hash();

  void close();

  /// Reopens the closed file: balances and chains again, and the data
  /// area's hash against @p live_hash. Sets reopen_s. Closes it after.
  bool reopen_and_check(const std::vector<std::vector<Request>>& requests,
                        std::uint64_t live_hash, std::string* why);

  double open_s = 0.0;
  double populate_s = 0.0;
  double reopen_s = 0.0;

  // Direct cell access (the checks' tests corrupt the image through these).
  cstm::dur::DurableHeap& heap() { return heap_; }
  std::uint64_t* balance(std::size_t i);
  std::uint64_t* head(int tid);

 private:
  bool check_image(cstm::dur::DurableHeap& h,
                   const std::vector<std::vector<Request>>& requests,
                   std::string* why);

  LedgerSpec spec_;
  std::uint64_t seed_;
  std::string path_;
  cstm::dur::DurableHeap heap_;
  std::uint64_t* accounts_ = nullptr;
  std::uint64_t* dir_ = nullptr;
};

/// A private directory for heap files, removed with everything in it when
/// the object goes away.
class TempDir {
 public:
  /// Creates a fresh directory under @p parent.
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What a whole durable-ledger workload run measured.
struct LedgerResult {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  double setup_s = 0.0;  // the first (cold) open + populate
  double timed_s = 0.0;
  std::vector<double> p50_us;  // per round
  std::vector<double> p99_us;  // per round
  std::vector<double> open_s;    // per timed round
  std::vector<double> reopen_s;  // per timed round
  std::vector<double> setup_round_s;
  std::vector<LedgerRun> runs;  // kept only when traced (spans, stats)
  cstm::TxStats stats;
  std::size_t rounds = 0;
};

/// Installs ledger_config(), then runs an untimed warm-up round (its open + populate is the cold set-up
/// time), then whole rounds — fresh heap, populate, run, check, close,
/// reopen, check — until @p seconds have passed. Heap files live in a
/// private directory under @p tmp_parent.
LedgerResult run_ledger(const LedgerSpec& spec, std::uint64_t seed,
                        double seconds, bool traced,
                        const std::string& tmp_parent);

/// Adds the end-to-end metrics of a ledger run to @p m, at the quiet host's
/// speed (see host_speed.hpp); prints them at wall-clock speed as a report
/// line.
void ledger_end_to_end(const LedgerResult& r, Metrics& m);

}  // namespace capbench
