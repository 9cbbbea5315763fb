// Each output check of the benchmark must fail on bad input, and the
// STAMP mixes must do the same work whatever barriers they elide.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "report.hpp"
#include "stamp_mix.hpp"
#include "stm/stm.hpp"

namespace capbench {
namespace {

TEST(Percentile, MatchesHandComputedValues) {
  // Sorted: 15 20 35 40 50. Rank q*(n-1), linear between neighbours.
  std::vector<double> v = {40, 15, 50, 35, 20};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.4), 29.0);   // rank 1.6: 20 + 0.6*15
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 35.0);   // rank 2
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 49.6);  // rank 3.96: 40 + 0.96*10
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.5), 0.0);
}

TEST(EqualWork, RejectsUnequalCounts) {
  std::string why;
  EXPECT_TRUE(equal_work({100, 7}, {100, 7}, &why));
  EXPECT_FALSE(equal_work({100, 7}, {101, 7}, &why));
  EXPECT_NE(why.find("commits"), std::string::npos) << why;
  EXPECT_FALSE(equal_work({100, 7}, {100, 8}, &why));
  EXPECT_NE(why.find("tx_malloc"), std::string::npos) << why;
}

// Barrier elision must not change the work done: at a small size and one
// thread, every app of the two STAMP mixes commits as many transactions and
// makes as many tx_malloc calls under baseline() as under its workload's
// config.
TEST(EqualWork, StampMixesMatchBaseline) {
  for (const char* w : {"capture-1t", "contend-4t"}) {
    const MixSpec* mix = find_mix(w);
    ASSERT_NE(mix, nullptr);
    for (const AppSpec& app : mix->apps) {
      const AppSpec small{app.name, app.scale * 0.25};
      cstm::set_global_config(cstm::TxConfig::baseline());
      const AppRun base = run_app_once(small, 1, 7);
      cstm::set_global_config(mix->config);
      const AppRun opt = run_app_once(small, 1, 7);
      ASSERT_TRUE(base.ok) << base.error;
      ASSERT_TRUE(opt.ok) << opt.error;
      std::string why;
      EXPECT_TRUE(equal_work({base.stats.commits, base.stats.tx_allocs},
                             {opt.stats.commits, opt.stats.tx_allocs}, &why))
          << w << "/" << app.name << ": " << why;
      if (mix->threads == 1) {  // capture-1t: every app has captured accesses
        EXPECT_GT(opt.stats.read_elided() + opt.stats.write_elided(), 0u)
            << app.name << " elided nothing";
      }
    }
  }
}

LedgerSpec small_ledger() {
  LedgerSpec s;
  s.threads = 2;
  s.accounts = 16;
  s.requests_per_thread = 600;
  s.batch = 4;
  return s;
}

class LedgerChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    cstm::set_global_config(ledger_config());
    requests_ = make_requests(small_ledger(), 11);
    ASSERT_TRUE(tmp_.ok());
    path_ = tmp_.path() + "/t.heap";
    std::string why;
    ASSERT_TRUE(ledger_.create(path_, &why)) << why;
    run_ = ledger_.run(requests_, true);
    ASSERT_EQ(run_.attempted, 1200u);
  }

  std::vector<std::vector<Request>> requests_;
  TempDir tmp_{"."};
  std::string path_;
  Ledger ledger_{small_ledger(), 11};
  LedgerRun run_;
};

TEST_F(LedgerChecks, IntactLedgerPasses) {
  std::string why;
  EXPECT_TRUE(ledger_.check_live(requests_, run_, &why)) << why;
  EXPECT_TRUE(ledger_.reopen_and_check(requests_, ledger_.image_hash(), &why))
      << why;
}

TEST_F(LedgerChecks, OneChangedBalanceFails) {
  *ledger_.balance(3) += 1;
  std::string why;
  EXPECT_FALSE(ledger_.check_live(requests_, run_, &why));
  EXPECT_NE(why.find("balances sum"), std::string::npos) << why;
}

TEST_F(LedgerChecks, DroppedRecordFails) {
  // Unlink the second-newest record of thread 1's chain.
  auto& heap = ledger_.heap();
  auto* newest = static_cast<std::uint64_t*>(heap.at(*ledger_.head(1)));
  ASSERT_NE(newest[0], 0u);
  const auto* second = static_cast<const std::uint64_t*>(heap.at(newest[0]));
  newest[0] = second[0];
  std::string why;
  EXPECT_FALSE(ledger_.check_live(requests_, run_, &why));
  EXPECT_NE(why.find("thread 1"), std::string::npos) << why;
}

TEST_F(LedgerChecks, WrongAuditOrFailedRequestFails) {
  std::string why;
  LedgerRun bad = run_;
  ASSERT_FALSE(bad.audit_sums[0].empty());
  bad.audit_sums[0][0] += 1;
  EXPECT_FALSE(ledger_.check_live(requests_, bad, &why));
  EXPECT_NE(why.find("audit"), std::string::npos) << why;
  bad = run_;
  bad.committed -= 1;
  bad.failed += 1;
  EXPECT_FALSE(ledger_.check_live(requests_, bad, &why));
  EXPECT_NE(why.find("failed"), std::string::npos) << why;
}

TEST_F(LedgerChecks, ReopenedLineDifferingFromLiveCopyFails) {
  std::string why;
  ASSERT_TRUE(ledger_.check_live(requests_, run_, &why)) << why;
  const std::uint64_t live = ledger_.image_hash();
  ledger_.close();
  // The data area is the file's tail; its last line is never allocated,
  // so only the image hash can notice the change.
  struct stat st {};
  ASSERT_EQ(::stat(path_.c_str(), &st), 0);
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(st.st_size - 8), SEEK_SET), 0);
  std::fputc(0x5a, f);
  std::fclose(f);
  EXPECT_FALSE(ledger_.reopen_and_check(requests_, live, &why));
  EXPECT_NE(why.find("differs"), std::string::npos) << why;
}

}  // namespace
}  // namespace capbench
