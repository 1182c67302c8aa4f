// Crash-recovery exploration of the durable backlog (tests/testing_crash.h).
//
// Every strategy sweeps a fault across kTriggers distinct IO-operation
// counts, with a different seeded workload per trigger, and checks the
// recovery contract at each crash point: recovery succeeds, the recovered
// history is a byte-identical prefix of the acknowledged one, nothing below
// the last completed checkpoint is lost, and the materialized state matches
// an in-memory shadow model. Each sweep also asserts that faults actually
// fired, so a build with failpoints compiled out fails loudly instead of
// passing vacuously.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "relation/temporal_relation.h"
#include "testing_crash.h"
#include "util/failpoint.h"

namespace tempspec {
namespace testing {
namespace {

constexpr uint64_t kTriggers = 200;       // crash points per strategy
constexpr size_t kNumOps = 160;           // workload length per trial
constexpr size_t kCheckpointEvery = 37;   // co-prime with WAL sync_every
constexpr uint64_t kSeedBase = 0xC0FFEE;

uint64_t TrialSeed(uint64_t trigger) { return kSeedBase ^ (trigger * 1000003ull); }

/// Runs a 200-point crash sweep and returns how many trials actually
/// crashed. Fault counters are reset first and asserted >0 afterwards.
size_t Sweep(const CrashStrategy& strategy,
             size_t checkpoint_every = kCheckpointEvery) {
  FailpointRegistry::Instance().ResetCounters();
  size_t crashed_trials = 0;
  for (uint64_t trigger = 0; trigger < kTriggers; ++trigger) {
    SCOPED_TRACE(std::string(strategy.name) + " trigger=" +
                 std::to_string(trigger));
    TrialOutcome out;
    RunBacklogCrashTrial(strategy, trigger, TrialSeed(trigger), kNumOps,
                         checkpoint_every, &out);
    if (::testing::Test::HasFatalFailure()) return crashed_trials;
    if (out.crashed) ++crashed_trials;
  }
  const FaultCounters c = PrintFaultSummary(strategy.name);
  EXPECT_GT(c.injected, 0u)
      << strategy.name << ": no fault was ever injected — the sweep was "
      << "vacuous (failpoints disabled or site name wrong?)";
  return crashed_trials;
}

TEST(CrashRecoveryTest, FailpointsAreCompiledIn) {
  ASSERT_TRUE(FailpointsCompiledIn())
      << "This binary was built with -DTEMPSPEC_FAILPOINTS=OFF: the entire "
         "crash-recovery suite would be vacuous. Build the test tree with "
         "failpoints ON (the default).";
}

// A short write tears the WAL tail mid-record; replay must stop at the tear
// and recovery keeps the acknowledged prefix up to it.
TEST(CrashRecoveryTest, TornWalAppend) {
  CrashStrategy s;
  s.name = "torn-wal-append";
  s.site = "wal.append";
  s.kind = FaultKind::kShortWrite;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.short_writes, 0u);
}

// A flipped bit lands anywhere in the record — length, CRC, LSN, or payload.
// The record CRC covers the LSN and payload, so every flip is detected and
// treated as end-of-log, never replayed or misrouted.
TEST(CrashRecoveryTest, CorruptWalAppend) {
  CrashStrategy s;
  s.name = "corrupt-wal-append";
  s.site = "wal.append";
  s.kind = FaultKind::kCorruptBit;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.corrupt_writes, 0u);
}

// With fsync-per-append, a clean crash loses nothing: recovery must return
// exactly the acknowledged operations, not merely a prefix.
TEST(CrashRecoveryTest, CleanCrashFsyncAlways) {
  CrashStrategy s;
  s.name = "clean-crash-fsync-always";
  s.site = "wal.append";
  s.kind = FaultKind::kCrash;
  s.sync_mode = SyncMode::kAlways;
  s.lossless = true;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
}

// With no syncing at all, the simulated machine crash may discard the whole
// unsynced WAL; only the checkpoint floor is guaranteed.
TEST(CrashRecoveryTest, LostPageCacheNoSync) {
  CrashStrategy s;
  s.name = "lost-page-cache-no-sync";
  s.site = "wal.append";
  s.kind = FaultKind::kCrash;
  s.sync_mode = SyncMode::kNone;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
}

// A torn page write during checkpoint (or during store creation, for small
// triggers) leaves a partial page; the scan-based page recovery must stop at
// the tear while the WAL still covers everything past the last checkpoint.
TEST(CrashRecoveryTest, TornCheckpointPageWrite) {
  CrashStrategy s;
  s.name = "torn-checkpoint-page-write";
  s.site = "disk.write_page";
  s.kind = FaultKind::kShortWrite;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
}

// A clean crash on a page write aborts the checkpoint between PersistRange
// and the WAL reset; recovery must reconcile overlapping page/WAL copies by
// LSN without duplicating or dropping operations.
TEST(CrashRecoveryTest, CheckpointPageCrash) {
  CrashStrategy s;
  s.name = "checkpoint-page-crash";
  s.site = "disk.write_page";
  s.kind = FaultKind::kCrash;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
}

// Every WAL fsync silently does nothing (lying disk), then a crash: the
// durable watermark never advances, so the machine-crash cut may reach all
// the way back to the last checkpoint. The floor must still hold, because
// checkpoint durability goes through the data-page fsync path.
TEST(CrashRecoveryTest, DroppedSyncThenCrash) {
  CrashStrategy s;
  s.name = "dropped-sync-then-crash";
  s.site = "wal.append";
  s.kind = FaultKind::kCrash;
  s.drop_wal_sync = true;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.dropped_syncs, 0u);
}

// Regression for WriteAheadLog::Reset durability: the checkpoint's WAL
// truncation never reaches the disk, so stale pre-checkpoint records stay in
// the file alongside post-checkpoint ones. Recovery must skip them by LSN —
// byte-identical-prefix would fail on any resurrected or duplicated record.
TEST(CrashRecoveryTest, WalResetDropRegression) {
  CrashStrategy s;
  s.name = "wal-reset-drop";
  s.site = "wal.append";
  s.kind = FaultKind::kCrash;
  s.drop_wal_reset = true;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.dropped_syncs, 0u)
      << "no WAL reset was ever dropped; the regression was not exercised";
}

// Pages appended by one checkpoint batch, at least: a clean (fault-free)
// run of the sweep's workload for `seed`, reading the page file's growth
// across each checkpoint.
uint64_t MinPagesPerCheckpoint(uint64_t seed, size_t payload_bytes,
                               size_t checkpoint_every) {
  CrashTempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  options.sync_mode = SyncMode::kEveryN;
  options.sync_every = 8;
  const auto pages = [&] {
    return std::filesystem::file_size(dir.path() + "/backlog.pages") /
           kPageSize;
  };
  FailpointRegistry::Instance().DisarmAll();
  auto store = BacklogStore::Open(options).ValueOrDie();
  uint64_t min_growth = UINT64_MAX;
  const std::vector<BacklogEntry> ops =
      MakeCrashWorkload(seed, kNumOps, payload_bytes);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_OK(AppendOp(store.get(), ops[i]));
    if ((i + 1) % checkpoint_every != 0) continue;
    const uint64_t before = pages();
    EXPECT_OK(store->Checkpoint());
    min_growth = std::min<uint64_t>(min_growth, pages() - before);
  }
  return min_growth;
}

// Short page writes with records of up to 900 bytes and 50-op checkpoint
// batches, so that every batch spans several pages and the sweep tears
// pages in the middle of a batch, not only its last one: recovery must
// quarantine from the torn page on and restore the whole batch from the
// WAL, whichever of its pages tore.
TEST(CrashRecoveryTest, TornPageMidMultiPageBatch) {
  constexpr size_t kPayloadBytes = 900;
  constexpr size_t kBatchOps = 50;
  for (uint64_t trigger = 0; trigger < kTriggers; ++trigger) {
    ASSERT_GT(
        MinPagesPerCheckpoint(TrialSeed(trigger), kPayloadBytes, kBatchOps),
        1u)
        << "a checkpoint batch of the trigger " << trigger
        << " workload fits on one page; the sweep would not tear a page "
        << "in the middle of a batch";
  }
  CrashStrategy s;
  s.name = "torn-page-mid-batch";
  s.site = "disk.write_page";
  s.kind = FaultKind::kShortWrite;
  s.payload_bytes = kPayloadBytes;
  const size_t crashed = Sweep(s, kBatchOps);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.short_writes, 0u);
}

// Backlog compaction (ReplaceAll) rewrites the page file through a side
// file adopted by atomic rename, renumbering LSNs from zero under a bumped
// epoch. A crash anywhere in the rewrite must resolve to exactly the old or
// exactly the new generation — never a hybrid, a WAL-gap error, or a stale
// record replayed under the new numbering.
TEST(CrashRecoveryTest, CompactionCrash) {
  CrashStrategy s;
  s.name = "compaction-crash";
  s.site = "disk.write_page";
  s.kind = FaultKind::kShortWrite;
  s.compact_every = 41;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
}

// Regression for stale WAL records surviving a compaction whose WAL reset
// never becomes durable: every reset is dropped, so old-generation records
// (higher LSNs, old epoch) sit in the file alongside new-generation
// appends. Replay must discard them by epoch — routed by LSN alone, a stale
// record could alias the compacted count and replay as a bogus fresh
// operation, and any other stale LSN would trip the gap check and make Open
// fail permanently.
TEST(CrashRecoveryTest, CompactionStaleWalRegression) {
  CrashStrategy s;
  s.name = "compaction-stale-wal";
  s.site = "wal.append";
  s.kind = FaultKind::kCrash;
  s.compact_every = 29;
  s.drop_wal_reset = true;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.dropped_syncs, 0u)
      << "no WAL reset was ever dropped; the regression was not exercised";
}

// A flipped bit in a checkpoint page write: the record CRC detects it and
// recovery quarantines the page, restoring its operations from the WAL.
TEST(CrashRecoveryTest, CorruptCheckpointPageWrite) {
  CrashStrategy s;
  s.name = "corrupt-checkpoint-page-write";
  s.site = "disk.write_page";
  s.kind = FaultKind::kCorruptBit;
  const size_t crashed = Sweep(s);
  EXPECT_GT(crashed, 0u);
  const FaultCounters c = FailpointRegistry::Instance().counters();
  EXPECT_GT(c.corrupt_writes, 0u);
}

// Transient EIO (a few consecutive failures, then the device recovers) must
// be absorbed by the retry/backoff layer: no operation fails, nothing is
// lost, and the store never turns read-only.
TEST(CrashRecoveryTest, TransientErrorsAreSurvived) {
  constexpr uint64_t kTransientTriggers = 64;
  for (const char* site : {"wal.append", "wal.sync", "disk.write_page"}) {
    CrashStrategy s;
    s.name = "transient-eio";
    s.site = site;
    s.kind = FaultKind::kTransientError;
    s.transient_ops = 2;  // fewer than kMaxIoAttempts: retries must absorb it
    FailpointRegistry::Instance().ResetCounters();
    for (uint64_t trigger = 0; trigger < kTransientTriggers; ++trigger) {
      SCOPED_TRACE(std::string(site) + " trigger=" + std::to_string(trigger));
      TrialOutcome out;
      RunBacklogCrashTrial(s, trigger, TrialSeed(trigger), kNumOps,
                           kCheckpointEvery, &out);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_FALSE(out.crashed) << "a transient error became fatal";
      EXPECT_EQ(out.acked, kNumOps);
      EXPECT_EQ(out.recovered, kNumOps)
          << "a fully-acknowledged, cleanly-closed store lost operations";
    }
    const FaultCounters c = PrintFaultSummary(site);
    EXPECT_GT(c.transient_errors, 0u) << site;
    EXPECT_EQ(c.crashes, 0u) << site;
  }
}

// End-to-end: the relation layer (inserts, logical deletes, modifications —
// the paper's three backlog operations) over a durable store, crashed at 200
// points and reopened through TemporalRelation::Open. Beyond backlog prefix
// identity, the rebuilt in-memory structures (elements, per-object
// partitions, current state) must be consistent with the recovered history.
TEST(CrashRecoveryTest, RelationLevelRecovery) {
  ASSERT_TRUE(FailpointsCompiledIn());
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.ResetCounters();

  SchemaPtr schema =
      Schema::Make("crash_rel",
                   {AttributeDef{"id", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"note", ValueType::kString}},
                   ValidTimeKind::kEvent, Granularity::Second())
          .ValueOrDie();

  constexpr size_t kRelationOps = 120;
  size_t crashed_trials = 0;
  for (uint64_t trigger = 0; trigger < kTriggers; ++trigger) {
    SCOPED_TRACE("relation trigger=" + std::to_string(trigger));
    registry.DisarmAll();
    CrashTempDir dir;
    Random rng(TrialSeed(trigger));

    RelationOptions options;
    options.schema = schema;
    options.storage.directory = dir.path();
    options.storage.sync_mode = SyncMode::kEveryN;
    options.storage.sync_every = 8;

    FaultSpec spec;
    spec.kind = FaultKind::kShortWrite;
    spec.trigger_at = trigger;
    spec.seed = TrialSeed(trigger);
    registry.Arm("wal.append", spec);

    bool crashed = false;
    std::vector<std::string> shadow;  // encoded acked backlog entries
    size_t floor = 0;
    {
      auto opened = TemporalRelation::Open(options);
      if (!opened.ok()) {
        crashed = true;
      } else {
        std::unique_ptr<TemporalRelation> rel = std::move(opened).ValueOrDie();
        std::vector<ElementSurrogate> live;
        for (size_t i = 0; i < kRelationOps; ++i) {
          const double dice = rng.NextDouble();
          Status st = Status::OK();
          if (!live.empty() && dice < 0.2) {
            const size_t v = static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
            st = rel->LogicalDelete(live[v]);
            if (st.ok()) live.erase(live.begin() + static_cast<ptrdiff_t>(v));
          } else if (!live.empty() && dice < 0.35) {
            // Modify = delete + insert under one transaction time: a crash
            // between its two WAL records is a legal entry-level prefix.
            const size_t v = static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
            auto modified = rel->Modify(
                live[v], ValidTime::Event(T(static_cast<int64_t>(5 * i + 2))),
                Tuple{static_cast<int64_t>(i), rng.NextString(12)});
            st = modified.status();
            if (st.ok()) live[v] = modified.ValueOrDie();
          } else {
            auto inserted = rel->InsertEvent(
                static_cast<ObjectSurrogate>(i % 7 + 1),
                T(static_cast<int64_t>(5 * i + 1)),
                Tuple{static_cast<int64_t>(i), rng.NextString(12)});
            st = inserted.status();
            if (st.ok()) live.push_back(inserted.ValueOrDie());
          }
          if (!st.ok()) {
            crashed = true;
            break;
          }
          if ((i + 1) % kCheckpointEvery == 0) {
            const Status cp = rel->Checkpoint();
            if (!cp.ok()) {
              crashed = true;
              break;
            }
            floor = rel->backlog().size();
          }
        }
        // The relation applies an operation only after its WAL append is
        // acknowledged, so the operations its elements imply are exactly
        // the acknowledged history — including, say, the delete half of a
        // Modify whose insert half crashed. That entry-level history is the
        // shadow recovery must reproduce a prefix of.
        for (const BacklogEntry& e : OperationsOf(rel->elements())) {
          shadow.push_back(e.Encode());
        }
        EXPECT_EQ(shadow.size(), rel->backlog().size());
        // Tear down while crashed so the WAL applies its tail cut.
      }
    }
    registry.DisarmAll();
    if (crashed) ++crashed_trials;

    // The recovered history, as the store streams it at open.
    std::vector<BacklogEntry> entries;
    ASSERT_OK(OpenCollecting(options.storage, &entries).status());

    RelationOptions reopen;
    reopen.schema = schema;
    reopen.storage = options.storage;
    auto recovered = TemporalRelation::Open(reopen);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    std::unique_ptr<TemporalRelation> rel = std::move(recovered).ValueOrDie();
    ASSERT_EQ(rel->backlog().size(), entries.size());

    ASSERT_LE(entries.size(), shadow.size());
    ASSERT_GE(entries.size(), floor);
    size_t inserts = 0;
    std::unordered_map<ElementSurrogate, bool> alive;
    for (size_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(entries[i].Encode(), shadow[i]) << "backlog op " << i;
      if (entries[i].op == BacklogOpType::kInsert) {
        ++inserts;
        alive[entries[i].element.element_surrogate] = true;
      } else {
        alive[entries[i].target] = false;
      }
    }

    // The rebuilt relation structures must agree with the recovered history.
    ASSERT_EQ(rel->size(), inserts);
    size_t alive_count = 0;
    for (const auto& [id, is_alive] : alive) alive_count += is_alive ? 1 : 0;
    ASSERT_EQ(QueryExecutor(*rel).Execute(TemporalQuery::Current()).size(),
              alive_count);

    // Partitions and object order are rebuilt on recovery (regression: they
    // used to come back empty, breaking PartitionOf()/Objects()).
    size_t partitioned = 0;
    for (ObjectSurrogate object : rel->Objects()) {
      partitioned += rel->PartitionOf(object).size();
    }
    ASSERT_EQ(partitioned, rel->size());
    if (rel->size() > 0) {
      ASSERT_FALSE(rel->Objects().empty());
    }
  }
  EXPECT_GT(crashed_trials, 0u);
  const FaultCounters c = PrintFaultSummary("relation-level");
  EXPECT_GT(c.injected, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace tempspec
