// BufferPool eviction under write pressure, and its interaction with crash
// recovery: with a tiny pool and large records, a single checkpoint batch
// spans more pages than the pool holds, so dirty pages are written back by
// *eviction* — before FlushAll, and long before the WAL reset. The recovery
// protocol must not care when a dirty page reached disk, only that the WAL
// reset comes after all of them: every entry is either on a CRC-valid page
// or still in the WAL, whatever interleaving the eviction policy produced.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "storage/backlog.h"
#include "testing_crash.h"
#include "util/failpoint.h"

namespace tempspec {
namespace testing {
namespace {

constexpr uint64_t kTriggers = 200;
constexpr size_t kNumOps = 120;
constexpr size_t kCheckpointEvery = 30;
constexpr uint64_t kSeedBase = 0xB0FFEE;
// Records average ~500 bytes: a 30-op checkpoint batch needs ~3 pages, more
// than the 2-frame pool, so writeback-by-eviction happens mid-checkpoint.
constexpr size_t kPoolPages = 2;
constexpr size_t kPayloadBytes = 900;

uint64_t TrialSeed(uint64_t trigger) { return kSeedBase ^ (trigger * 1000003ull); }

// Sanity (no faults): the tiny pool really does evict dirty pages during
// checkpoints, and a cleanly closed store still recovers byte-identically.
TEST(BufferPoolCrashTest, EvictionUnderWritePressure) {
  FailpointRegistry::Instance().DisarmAll();
  CrashTempDir dir;
  const std::vector<BacklogEntry> ops =
      MakeCrashWorkload(kSeedBase, kNumOps, kPayloadBytes);

  BacklogStore::Options options;
  options.directory = dir.path();
  options.sync_mode = SyncMode::kEveryN;
  options.sync_every = 8;
  options.buffer_pool_pages = kPoolPages;

  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<BacklogStore> store,
                         BacklogStore::Open(options));
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_OK(AppendOp(store.get(), ops[i]));
      if ((i + 1) % kCheckpointEvery == 0) ASSERT_OK(store->Checkpoint());
    }
    ASSERT_OK(store->Checkpoint());
    EXPECT_GT(store->buffer_pool()->evictions(), 0u)
        << "the workload never overflowed the pool; this suite is not "
           "exercising eviction writeback at all";
  }

  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BacklogStore> store,
                       OpenCollecting(options, &recovered));
  ASSERT_EQ(recovered.size(), ops.size());
  ASSERT_EQ(store->size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(recovered[i].Encode(), ops[i].Encode()) << "op " << i;
  }
}

// Crash sweep over the page-write path while evictions interleave with the
// checkpoint: whichever page the crash lands on (evicted early or flushed
// late), recovery must hold the prefix + checkpoint-floor contract.
TEST(BufferPoolCrashTest, CrashDuringEvictionWriteback) {
  CrashStrategy s;
  s.name = "eviction-writeback-crash";
  s.site = "disk.write_page";
  s.kind = FaultKind::kShortWrite;
  s.pool_pages = kPoolPages;
  s.payload_bytes = kPayloadBytes;

  FailpointRegistry::Instance().ResetCounters();
  size_t crashed_trials = 0;
  for (uint64_t trigger = 0; trigger < kTriggers; ++trigger) {
    SCOPED_TRACE("trigger=" + std::to_string(trigger));
    TrialOutcome out;
    RunBacklogCrashTrial(s, trigger, TrialSeed(trigger), kNumOps,
                         kCheckpointEvery, &out);
    if (::testing::Test::HasFatalFailure()) return;
    if (out.crashed) ++crashed_trials;
  }
  EXPECT_GT(crashed_trials, 0u);
  const FaultCounters c = PrintFaultSummary("eviction-writeback-crash");
  EXPECT_GT(c.injected, 0u);
  EXPECT_GT(c.short_writes, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace tempspec
