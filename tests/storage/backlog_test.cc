#include "storage/backlog.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "testing.h"

namespace tempspec {
namespace {

using testing::MakeEventElement;
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

TEST(BacklogStoreTest, InMemoryMaterialization) {
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open({}));
  EXPECT_FALSE(store->durable());
  ASSERT_OK(store->Append(Insert(10, 1, 5)));
  ASSERT_OK(store->Append(Insert(20, 2, 15)));
  ASSERT_OK(store->Append(Delete(30, 1)));
  ASSERT_OK(store->Append(Insert(40, 3, 35)));

  EXPECT_EQ(store->MaterializeState(T(5)).size(), 0u);
  EXPECT_EQ(store->MaterializeState(T(10)).size(), 1u);
  EXPECT_EQ(store->MaterializeState(T(25)).size(), 2u);
  EXPECT_EQ(store->MaterializeState(T(30)).size(), 1u);  // 1 deleted at 30
  EXPECT_EQ(store->MaterializeState(T(100)).size(), 2u);

  const auto all = store->ReconstructElements();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].tt_end, T(30));  // element 1's existence interval closed
  EXPECT_TRUE(all[1].IsCurrent());
}

TEST(BacklogStoreTest, DurableRecoveryFromWal) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    EXPECT_TRUE(store->durable());
    ASSERT_OK(store->Append(Insert(10, 1, 5)));
    ASSERT_OK(store->Append(Insert(20, 2, 15)));
    ASSERT_OK(store->Append(Delete(30, 1)));
    // No checkpoint: everything lives in the WAL.
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->size(), 3u);
  EXPECT_EQ(store->MaterializeState(T(100)).size(), 1u);
}

TEST(BacklogStoreTest, CheckpointMovesEntriesToPages) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(store->Append(Insert(10 + i, i + 1, i)));
    }
    ASSERT_OK(store->Checkpoint());
    EXPECT_EQ(store->persisted_entries(), 100u);
    // Post-checkpoint appends go to the WAL.
    ASSERT_OK(store->Append(Delete(500, 1)));
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->size(), 101u);
  EXPECT_EQ(store->persisted_entries(), 100u);
  EXPECT_EQ(store->MaterializeState(T(1000)).size(), 99u);
  // Entries recovered in order.
  EXPECT_EQ(store->entries().front().tt, T(10));
  EXPECT_EQ(store->entries().back().op, BacklogOpType::kLogicalDelete);
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
      ASSERT_OK(store->Append(Insert(1000 * round + i, total + i + 1, i)));
    }
    total += 50;
    ASSERT_OK(store->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->size(), 150u);
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
      ASSERT_OK(store->Append(entry));
    }
    ASSERT_OK(store->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  ASSERT_EQ(store->size(), 20u);
  EXPECT_EQ(store->entries()[7].element.attributes.at(0).AsString().size(), 3000u);
}

TEST(BacklogStoreTest, RejectsUnknownFormatVersion) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    ASSERT_OK(store->Append(Insert(10, 1, 5)));
    ASSERT_OK(store->Checkpoint());
  }
  // Rewrite the header as an older format version: magic intact, version 1.
  // Reopen must refuse loudly — a silent "recovery" would discard the data,
  // since pre-v3 records carry no CRC prefixes and fail every scan.
  {
    ASSERT_OK_AND_ASSIGN(auto disk,
                         DiskManager::Open(dir.path() + "/backlog.pages"));
    Page page;
    SlottedPage sp(&page);
    sp.Init();
    std::string meta;
    Encoder enc(&meta);
    enc.PutU32(0x544C4B42u);  // backlog magic
    enc.PutU32(1u);           // format version 1
    enc.PutU64(1u);           // v1-style entry count
    ASSERT_OK(sp.Insert(meta).status());
    ASSERT_OK(disk->WritePage(0, page));
    ASSERT_OK(disk->Sync());
  }
  auto reopened = BacklogStore::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
  EXPECT_NE(reopened.status().ToString().find("version"), std::string::npos)
      << reopened.status().ToString();
}

TEST(BacklogStoreTest, ReplaceAllSurvivesReopenAndBumpsEpoch) {
  TempDir dir;
  BacklogStore::Options options;
  options.directory = dir.path();
  {
    ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(store->Append(Insert(10 + i, i + 1, i)));
    }
    ASSERT_OK(store->Checkpoint());
    ASSERT_OK(store->Append(Delete(100, 1)));
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
    ASSERT_OK(store->Append(Insert(200, 50, 199)));
  }
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  EXPECT_EQ(store->epoch(), 1u);
  ASSERT_EQ(store->size(), 20u);
  EXPECT_EQ(store->entries().front().element.element_surrogate, 2u);
  EXPECT_EQ(store->entries().back().element.element_surrogate, 50u);
}

}  // namespace
}  // namespace tempspec
