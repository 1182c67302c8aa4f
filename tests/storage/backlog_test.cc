#include "storage/backlog.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "testing.h"
#include "testing_crash.h"

namespace tempspec {
namespace {

using testing::AppendOp;
using testing::MakeEventElement;
using testing::OpenCollecting;
using testing::T;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tempspec_backlog_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

BacklogEntry Insert(int64_t tt, ElementSurrogate id, int64_t vt) {
  BacklogEntry e;
  e.op = BacklogOpType::kInsert;
  e.tt = T(tt);
  e.element = MakeEventElement(T(tt), T(vt), id, id % 4 + 1);
  e.element.attributes = Tuple{static_cast<int64_t>(id)};
  return e;
}

BacklogEntry Delete(int64_t tt, ElementSurrogate target) {
  BacklogEntry e;
  e.op = BacklogOpType::kLogicalDelete;
  e.tt = T(tt);
  e.target = target;
  return e;
}

TEST(BacklogEntryTest, EncodeDecodeRoundTrip) {
  const BacklogEntry ins = Insert(10, 3, 5);
  ASSERT_OK_AND_ASSIGN(BacklogEntry back, BacklogEntry::Decode(ins.Encode()));
  EXPECT_EQ(back.op, BacklogOpType::kInsert);
  EXPECT_EQ(back.tt, T(10));
  EXPECT_EQ(back.element.element_surrogate, 3u);

  const BacklogEntry del = Delete(20, 3);
  ASSERT_OK_AND_ASSIGN(BacklogEntry back2, BacklogEntry::Decode(del.Encode()));
  EXPECT_EQ(back2.op, BacklogOpType::kLogicalDelete);
  EXPECT_EQ(back2.target, 3u);

  EXPECT_TRUE(BacklogEntry::Decode("\x09garbage").status().IsCorruption());
}

TEST(BacklogEntryTest, GeneralEventsInsertTakesAtMost40WalBytes) {
  // The shape of the benchmark's general_events preload near its end: the
  // 200 000th insert on the default one-second logical clock, valid time up
  // to two hours from transaction time, attributes (object, amount), at a
  // WAL position past 340 000 records. The fixed-width v3 format wrote 104
  // bytes for it.
  BacklogEntry ins = Insert(200'000, 200'000, 200'000 - 7'193);
  ins.element.object_surrogate = 16;
  ins.element.attributes = Tuple{int64_t{16}, 89.99};
  // The same insert on a microsecond wall clock: stamps are no longer whole
  // seconds, tt_begin takes 8 bytes and the valid-time offset 5.
  BacklogEntry wall = ins;
  wall.tt = wall.element.tt_begin =
      TimePoint::FromMicros(1'790'000'000'123'456);
  wall.element.valid = ValidTime::Event(
      TimePoint::FromMicros(1'790'000'000'123'456 - 7'193'654'321));
  for (const BacklogEntry* entry : {&ins, &wall}) {
    TempDir dir;
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.path() + "/wal"));
    wal->SetNextLsn(340'000);
    ASSERT_OK(wal->Append(entry->Encode()).status());
    EXPECT_LE(wal->bytes_written(), 40u) << entry->element.tt_begin.ToString();
  }
}

TEST(BacklogTest, MaterializeAndReconstructReplayAnOperationList) {
  const std::vector<BacklogEntry> ops = {Insert(10, 1, 5), Insert(20, 2, 15),
                                         Delete(30, 1), Insert(40, 3, 35)};
  EXPECT_EQ(MaterializeState(ops, T(5)).size(), 0u);
  EXPECT_EQ(MaterializeState(ops, T(10)).size(), 1u);
  EXPECT_EQ(MaterializeState(ops, T(25)).size(), 2u);
  EXPECT_EQ(MaterializeState(ops, T(30)).size(), 1u);  // 1 deleted at 30
  EXPECT_EQ(MaterializeState(ops, T(100)).size(), 2u);

  const auto all = ReconstructElements(ops);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].tt_end, T(30));  // element 1's existence interval closed
  EXPECT_TRUE(all[1].IsCurrent());

  // OperationsOf inverts ReconstructElements byte for byte.
  const std::vector<BacklogEntry> derived = OperationsOf(all);
  ASSERT_EQ(derived.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(derived[i].Encode(), ops[i].Encode()) << "op " << i;
  }
}

TEST(BacklogTest, OperationsOfPutsAModifysDeleteBeforeItsInsert) {
  // Element 1 is modified into element 2 at tt 20: one transaction time,
  // the deletion first (Section 2).
  std::vector<Element> elements = {MakeEventElement(T(10), T(5), 1),
                                   MakeEventElement(T(20), T(6), 2),
                                   MakeEventElement(T(30), T(7), 3)};
  elements[0].tt_end = T(20);
  const std::vector<BacklogEntry> ops = OperationsOf(elements);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].element.element_surrogate, 1u);
  EXPECT_TRUE(ops[0].element.IsCurrent());  // the insert carries an open tt_d
  EXPECT_EQ(ops[1].op, BacklogOpType::kLogicalDelete);
  EXPECT_EQ(ops[1].target, 1u);
  EXPECT_EQ(ops[2].element.element_surrogate, 2u);
  EXPECT_EQ(ops[3].element.element_surrogate, 3u);
}

TEST(BacklogStoreTest, InMemoryStoreOnlyCounts) {
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open({}));
  EXPECT_FALSE(store->durable());
  const std::vector<BacklogEntry> ops = {Insert(10, 1, 5), Insert(20, 2, 15),
                                         Delete(30, 1)};
  size_t bytes = 0;
  for (const BacklogEntry& op : ops) {
    ASSERT_OK(AppendOp(store.get(), op));
    bytes += op.Encode().size();
  }
  EXPECT_EQ(store->size(), 3u);
  EXPECT_EQ(store->encoded_bytes(), bytes);
  EXPECT_EQ(store->last_tt(), T(30));
  ASSERT_OK(store->Checkpoint());  // nothing to persist
  EXPECT_EQ(store->size(), 3u);
}

TEST(BacklogStoreTest, DurableRecoveryFromWal) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    EXPECT_TRUE(store->durable());
    ASSERT_OK(AppendOp(store.get(), Insert(10, 1, 5)));
    ASSERT_OK(AppendOp(store.get(), Insert(20, 2, 15)));
    ASSERT_OK(AppendOp(store.get(), Delete(30, 1)));
    // No checkpoint: everything lives in the WAL.
  }
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  EXPECT_EQ(store->size(), 3u);
  EXPECT_EQ(recovered.size(), 3u);
  EXPECT_EQ(MaterializeState(recovered, T(100)).size(), 1u);
}

TEST(BacklogStoreTest, CheckpointMovesEntriesToPages) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(AppendOp(store.get(), Insert(10 + i, i + 1, i)));
    }
    ASSERT_OK(store->Checkpoint());
    EXPECT_EQ(store->persisted_entries(), 100u);
    // Post-checkpoint appends go to the WAL.
    ASSERT_OK(AppendOp(store.get(), Delete(500, 1)));
  }
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  EXPECT_EQ(store->size(), 101u);
  EXPECT_EQ(store->persisted_entries(), 100u);
  ASSERT_EQ(recovered.size(), 101u);
  EXPECT_EQ(MaterializeState(recovered, T(1000)).size(), 99u);
  // Entries recovered in order.
  EXPECT_EQ(recovered.front().tt, T(10));
  EXPECT_EQ(recovered.back().op, BacklogOpType::kLogicalDelete);
}

TEST(BacklogStoreTest, RepeatedCheckpointsAndReopen) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  size_t total = 0;
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    ASSERT_EQ(store->size(), total);
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(
          AppendOp(store.get(), Insert(1000 * round + i, total + i + 1, i)));
    }
    total += 50;
    ASSERT_OK(store->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->size(), 150u);
}

TEST(BacklogStoreTest, CheckpointOfAShortenedWalFailsWithoutPersisting) {
  // The store holds no copy of its operations, so a checkpoint reads them
  // back from the WAL. A WAL cut behind the store's back must fail the
  // checkpoint before it writes a page or resets the WAL: a short batch
  // followed by a reset would drop the missing operations for good.
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  const std::string wal_path = dir.path() + "/backlog.wal";
  const std::string pages_path = dir.path() + "/backlog.pages";
  std::vector<BacklogEntry> ops;
  for (int i = 0; i < 20; ++i) ops.push_back(Insert(10 + i, i + 1, i));
  uintmax_t cut = 0;
  uintmax_t pages_bytes = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 10; ++i) ASSERT_OK(AppendOp(store.get(), ops[i]));
    ASSERT_OK(store->Checkpoint());
    for (int i = 10; i < 20; ++i) ASSERT_OK(AppendOp(store.get(), ops[i]));
    pages_bytes = std::filesystem::file_size(pages_path);
    cut = std::filesystem::file_size(wal_path) / 2;
    std::filesystem::resize_file(wal_path, cut);

    const Status st = store->Checkpoint();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_TRUE(store->io_failed());
    EXPECT_EQ(store->persisted_entries(), 10u);
    EXPECT_EQ(std::filesystem::file_size(pages_path), pages_bytes)
        << "a short batch reached the page file";
    EXPECT_EQ(std::filesystem::file_size(wal_path), cut)
        << "the WAL was reset over operations it no longer held";
    EXPECT_TRUE(AppendOp(store.get(), Insert(100, 99, 99)).IsIOError());
  }
  // Reopening recovers the checkpointed batch plus the surviving WAL prefix.
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  EXPECT_EQ(store->persisted_entries(), 10u);
  ASSERT_GT(recovered.size(), 10u);
  ASSERT_LT(recovered.size(), 20u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].Encode(), ops[i].Encode()) << "op " << i;
  }
  // The reopened store checkpoints normally again.
  ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->persisted_entries(), recovered.size());
}

TEST(BacklogStoreTest, AppendsAfterATornWalTailSurviveReopen) {
  // A crash mid-append leaves a torn record at the WAL's end. Recovery
  // stops there, and the reopened WAL must cut it off: an append written
  // beyond the tear would be unreachable at the next replay.
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  const std::string wal_path = dir.path() + "/backlog.wal";
  const std::vector<BacklogEntry> ops = {Insert(10, 1, 5), Insert(20, 2, 15),
                                         Insert(30, 3, 25), Insert(40, 4, 35),
                                         Delete(50, 1)};
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 3; ++i) ASSERT_OK(AppendOp(store.get(), ops[i]));
  }
  std::filesystem::resize_file(wal_path,
                               std::filesystem::file_size(wal_path) - 5);
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    ASSERT_EQ(store->size(), 2u);  // the torn third insert is gone
    ASSERT_OK(AppendOp(store.get(), ops[3]));
    ASSERT_OK(AppendOp(store.get(), ops[4]));
  }
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  ASSERT_EQ(recovered.size(), 4u) << "appends after the tear were lost";
  const size_t expected[] = {0, 1, 3, 4};
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].Encode(), ops[expected[i]].Encode()) << "op " << i;
  }
}

TEST(BacklogStoreTest, LargeElementsSpanPages) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 20; ++i) {
      BacklogEntry entry = Insert(i + 1, i + 1, i);
      entry.element.attributes = Tuple{std::string(3000, 'x')};  // ~3 KB each
      ASSERT_OK(AppendOp(store.get(), entry));
    }
    ASSERT_OK(store->Checkpoint());
  }
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  ASSERT_EQ(store->size(), 20u);
  ASSERT_EQ(recovered.size(), 20u);
  EXPECT_EQ(recovered[7].element.attributes.at(0).AsString().size(), 3000u);
}

TEST(BacklogStoreTest, RejectsUnknownFormatVersion) {
  // Rewrite the header as an older format version, magic intact. Reopen
  // must refuse loudly: a silent "recovery" would discard the data, since
  // v1/v2 records carry no CRC prefixes and v3 records are fixed-width, and
  // every scan would fail on them.
  for (const uint32_t version : {1u, 3u}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    TempDir dir;
    BacklogStore::Options options;
    options.directory = dir.path();
    {
      ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
      ASSERT_OK(AppendOp(store.get(), Insert(10, 1, 5)));
      ASSERT_OK(store->Checkpoint());
    }
    {
      ASSERT_OK_AND_ASSIGN(auto disk,
                           DiskManager::Open(dir.path() + "/backlog.pages"));
      Page page;
      SlottedPage sp(&page);
      sp.Init();
      std::string meta;
      Encoder enc(&meta);
      enc.PutU32(0x544C4B42u);  // backlog magic
      enc.PutU32(version);
      enc.PutU64(1u);  // v1: entry count; v3: epoch
      ASSERT_OK(sp.Insert(meta).status());
      ASSERT_OK(disk->WritePage(0, page));
      ASSERT_OK(disk->Sync());
    }
    auto reopened = BacklogStore::Open(options);
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCorruption());
    EXPECT_NE(reopened.status().ToString().find(
                  "version " + std::to_string(version)),
              std::string::npos)
        << reopened.status().ToString();
  }
}

TEST(BacklogStoreTest, OpenReadsTheWalOnce) {
  // Recovery finds the WAL's torn tail and replays its records in the same
  // pass: the bytes read equal the file's size.
  if (!MetricsCompiledIn()) GTEST_SKIP() << "metrics compiled out";
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(AppendOp(store.get(), Insert(10 + i, i + 1, i)));
    }
  }
  MetricCounter& read = MetricsRegistry::Instance().GetCounter(
      "storage.wal.replay_bytes");
  const uint64_t before = read.Value();
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->size(), 100u);
  EXPECT_EQ(read.Value() - before,
            std::filesystem::file_size(dir.path() + "/backlog.wal"));
}

TEST(BacklogStoreTest, ReplaceAllSurvivesReopenAndBumpsEpoch) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(AppendOp(store.get(), Insert(10 + i, i + 1, i)));
    }
    ASSERT_OK(store->Checkpoint());
    ASSERT_OK(AppendOp(store.get(), Delete(100, 1)));
    EXPECT_EQ(store->epoch(), 0u);

    // Compact down to the 19 surviving inserts.
    std::vector<BacklogEntry> compacted;
    for (int i = 1; i < 20; ++i) {
      compacted.push_back(Insert(10 + i, i + 1, i));
    }
    ASSERT_OK(store->ReplaceAll(compacted));
    EXPECT_EQ(store->epoch(), 1u);
    EXPECT_EQ(store->persisted_entries(), 19u);

    // The store stays writable across generations.
    ASSERT_OK(AppendOp(store.get(), Insert(200, 50, 199)));
  }
  std::vector<BacklogEntry> recovered;
  ASSERT_OK_AND_ASSIGN(auto store, OpenCollecting(options, &recovered));
  EXPECT_EQ(store->epoch(), 1u);
  ASSERT_EQ(store->size(), 20u);
  ASSERT_EQ(recovered.size(), 20u);
  EXPECT_EQ(recovered.front().element.element_surrogate, 2u);
  EXPECT_EQ(recovered.back().element.element_surrogate, 50u);
}

}  // namespace
}  // namespace tempspec
