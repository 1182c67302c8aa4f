// DiskManager, BufferPool, and WAL tests (filesystem-backed).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/serde.h"
#include "storage/wal.h"
#include "testing.h"

namespace tempspec {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tempspec_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(DiskManagerTest, AllocateWriteRead) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  EXPECT_EQ(disk->page_count(), 0u);
  ASSERT_OK_AND_ASSIGN(PageId id, disk->AllocatePage());
  EXPECT_EQ(id, 0u);
  Page page;
  page.Zero();
  std::snprintf(page.data, kPageSize, "payload-%d", 42);
  ASSERT_OK(disk->WritePage(id, page));
  Page read;
  ASSERT_OK(disk->ReadPage(id, &read));
  EXPECT_STREQ(read.data, "payload-42");
}

TEST(DiskManagerTest, BoundsChecked) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  Page page;
  EXPECT_TRUE(disk->ReadPage(5, &page).IsOutOfRange());
  EXPECT_TRUE(disk->WritePage(5, page).IsOutOfRange());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
    ASSERT_OK(disk->AllocatePage().status());
    Page page;
    page.Zero();
    page.data[0] = 'Z';
    ASSERT_OK(disk->WritePage(0, page));
    ASSERT_OK(disk->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  EXPECT_EQ(disk->page_count(), 1u);
  Page page;
  ASSERT_OK(disk->ReadPage(0, &page));
  EXPECT_EQ(page.data[0], 'Z');
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  BufferPool pool(disk.get(), 4);
  ASSERT_OK_AND_ASSIGN(PageGuard g0, pool.Allocate());
  const PageId id = g0.id();
  g0.Release();
  EXPECT_EQ(pool.misses(), 1u);
  { ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Fetch(id)); }
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  BufferPool pool(disk.get(), 2);
  // Write distinct bytes into 5 pages through a 2-frame pool.
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Allocate());
    g.mutable_page()->data[0] = static_cast<char>('a' + i);
    ids.push_back(g.id());
  }
  EXPECT_GT(pool.evictions(), 0u);
  // All pages readable with their bytes (dirty evictions were written back).
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Fetch(ids[i]));
    EXPECT_EQ(g.page().data[0], static_cast<char>('a' + i));
  }
}

TEST(BufferPoolTest, AllPinnedFails) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  BufferPool pool(disk.get(), 2);
  ASSERT_OK_AND_ASSIGN(PageGuard g0, pool.Allocate());
  ASSERT_OK_AND_ASSIGN(PageGuard g1, pool.Allocate());
  auto g2 = pool.Allocate();
  EXPECT_FALSE(g2.ok());
  g0.Release();
  auto g3 = pool.Allocate();
  EXPECT_TRUE(g3.ok());
}

TEST(BufferPoolTest, FlushAllPersists) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto disk, DiskManager::Open(dir.file("data")));
  {
    BufferPool pool(disk.get(), 8);
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Allocate());
    g.mutable_page()->data[7] = 'Q';
    g.Release();
    ASSERT_OK(pool.FlushAll());
  }
  Page page;
  ASSERT_OK(disk->ReadPage(0, &page));
  EXPECT_EQ(page.data[7], 'Q');
}

TEST(WalTest, AppendAndReplay) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.file("wal")));
  EXPECT_EQ(wal->Append("one").ValueOrDie(), 0u);
  EXPECT_EQ(wal->Append("two").ValueOrDie(), 1u);
  EXPECT_EQ(wal->Append("three").ValueOrDie(), 2u);
  std::vector<std::string> seen;
  ASSERT_OK_AND_ASSIGN(uint64_t n,
                       wal->Replay([&](uint64_t lsn, std::string_view p) {
                         EXPECT_EQ(lsn, seen.size());
                         seen.emplace_back(p);
                         return Status::OK();
                       }));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(WalTest, LsnsContinueAcrossReopen) {
  TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.file("wal")));
    ASSERT_OK(wal->Append("a").status());
    ASSERT_OK(wal->Append("b").status());
    ASSERT_OK(wal->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.file("wal")));
  EXPECT_EQ(wal->next_lsn(), 2u);
  EXPECT_EQ(wal->Append("c").ValueOrDie(), 2u);
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  TempDir dir;
  const std::string path = dir.file("wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
    ASSERT_OK(wal->Append("intact-1").status());
    ASSERT_OK(wal->Append("intact-2").status());
    ASSERT_OK(wal->Sync());
  }
  // Simulate a crash mid-append: chop off the last 5 bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
  std::vector<std::string> seen;
  ASSERT_OK_AND_ASSIGN(uint64_t n,
                       wal->Replay([&](uint64_t, std::string_view p) {
                         seen.emplace_back(p);
                         return Status::OK();
                       }));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(seen, std::vector<std::string>{"intact-1"});
}

TEST(WalTest, CorruptPayloadDetectedByCrc) {
  TempDir dir;
  const std::string path = dir.file("wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
    ASSERT_OK(wal->Append("aaaaaaaaaa").status());
    ASSERT_OK(wal->Sync());
  }
  // Flip a payload byte.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 26, SEEK_SET);  // inside the payload (24-byte header)
    std::fputc('X', f);
    std::fclose(f);
  }
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
  ASSERT_OK_AND_ASSIGN(uint64_t n, wal->Replay([](uint64_t, std::string_view) {
                         return Status::OK();
                       }));
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, ReplayFiltersOtherEpochs) {
  TempDir dir;
  const std::string path = dir.file("wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal,
                         WriteAheadLog::Open(path, SyncMode::kNone, 64,
                                             /*epoch=*/0));
    ASSERT_OK(wal->Append("stale-1").status());
    ASSERT_OK(wal->Append("stale-2").status());
    ASSERT_OK(wal->Sync());
  }
  // Reopen under the next epoch — the state a crash leaves when a backlog
  // compaction's WAL reset never became durable. The stale generation must
  // be invisible: not delivered, and not advancing the LSN counter.
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path, SyncMode::kNone, 64,
                                                     /*epoch=*/1));
  EXPECT_EQ(wal->next_lsn(), 0u);
  ASSERT_OK(wal->Append("fresh").status());
  std::vector<std::string> seen;
  ASSERT_OK_AND_ASSIGN(uint64_t n,
                       wal->Replay([&](uint64_t lsn, std::string_view p) {
                         EXPECT_EQ(lsn, 0u);
                         seen.emplace_back(p);
                         return Status::OK();
                       }));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(seen, std::vector<std::string>{"fresh"});
}

TEST(WalTest, ResetClearsContentsButKeepsLsns) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.file("wal")));
  ASSERT_OK(wal->Append("x").status());
  ASSERT_OK(wal->Reset());
  ASSERT_OK_AND_ASSIGN(uint64_t n, wal->Replay([](uint64_t, std::string_view) {
                         return Status::OK();
                       }));
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(wal->Append("y").ValueOrDie(), 1u);  // LSN continues
}

// --- Windowed replay -------------------------------------------------------
// Replay parses records out of a fixed read window. These tests place the
// window's first boundary inside a header's length field, inside its CRC and
// inside a payload, add a record larger than the window, then cut the file
// at every byte offset around those points: Replay must deliver what a
// whole-file decode delivers, and Open must cut the tail at the same byte.

using WalRecords = std::vector<std::pair<uint64_t, std::string>>;

constexpr size_t kWalHeaderBytes = 24;  // len, crc, epoch, lsn

/// Decodes a whole log image the straightforward way (the reference).
WalRecords ReferenceDecode(const std::string& bytes, uint64_t* intact) {
  WalRecords records;
  size_t pos = 0;
  while (pos + kWalHeaderBytes <= bytes.size()) {
    Decoder dec(std::string_view(bytes).substr(pos, kWalHeaderBytes));
    const uint32_t len = dec.GetU32().ValueOrDie();
    const uint32_t crc = dec.GetU32().ValueOrDie();
    dec.GetU64().ValueOrDie();  // epoch: every record here is epoch 0
    const uint64_t lsn = dec.GetU64().ValueOrDie();
    if (pos + kWalHeaderBytes + len > bytes.size()) break;
    if (Crc32(std::string_view(bytes).substr(pos + 8, 16 + len)) != crc) break;
    records.emplace_back(lsn, bytes.substr(pos + kWalHeaderBytes, len));
    pos += kWalHeaderBytes + len;
  }
  *intact = pos;
  return records;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Appends one record per payload size (distinct contents) and returns the
/// log's bytes.
std::string BuildLog(const std::string& path,
                     const std::vector<size_t>& payload_sizes) {
  auto wal = WriteAheadLog::Open(path).ValueOrDie();
  for (size_t i = 0; i < payload_sizes.size(); ++i) {
    std::string payload(payload_sizes[i], '\0');
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<char>('a' + (i * 7 + j) % 26);
    }
    EXPECT_TRUE(wal->Append(payload).ok());
  }
  wal.reset();
  return ReadFileBytes(path);
}

/// Cuts `full` at every offset in [center - radius, center + radius] and
/// checks Open's tail cut and Replay's records against the reference.
void CheckCutsAround(const TempDir& dir, const std::string& full,
                     size_t center, size_t radius) {
  const std::string path = dir.file("cut");
  for (size_t cut = center - radius; cut <= center + radius; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string image = full.substr(0, std::min(cut, full.size()));
    uint64_t intact = 0;
    const WalRecords expected = ReferenceDecode(image, &intact);
    WriteFileBytes(path, image);
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
    EXPECT_EQ(std::filesystem::file_size(path), intact);
    EXPECT_EQ(wal->next_lsn(), expected.size());
    WalRecords seen;
    ASSERT_OK_AND_ASSIGN(uint64_t n,
                         wal->Replay([&](uint64_t lsn, std::string_view p) {
                           seen.emplace_back(lsn, std::string(p));
                           return Status::OK();
                         }));
    EXPECT_EQ(n, expected.size());
    EXPECT_EQ(seen, expected);
  }
}

TEST(WalTest, WindowBoundaryInsideAHeaderOrPayload) {
  constexpr size_t kWindow = WriteAheadLog::kReplayWindowBytes;
  // The second record's header starts `offset` bytes before the boundary:
  // 2 puts the boundary in its length field, 6 in its CRC, 34 ten bytes
  // into its payload.
  for (const size_t offset : {size_t{2}, size_t{6}, size_t{34}}) {
    SCOPED_TRACE("second header starts " + std::to_string(offset) +
                 " bytes before the window boundary");
    TempDir dir;
    const std::string full = BuildLog(
        dir.file("wal"), {kWindow - kWalHeaderBytes - offset, 100, 100, 3});
    ASSERT_EQ(full.size(), kWindow - offset + 3 * kWalHeaderBytes + 203);
    CheckCutsAround(dir, full, kWindow, 40);
    CheckCutsAround(dir, full, full.size() - 40, 40);  // through the end
  }
}

TEST(WalTest, RecordLargerThanTheWindowReplays) {
  constexpr size_t kWindow = WriteAheadLog::kReplayWindowBytes;
  TempDir dir;
  const std::vector<size_t> sizes = {10, 2 * kWindow + 123, 10};
  const std::string full = BuildLog(dir.file("wal"), sizes);
  const size_t big_end = 2 * kWalHeaderBytes + sizes[0] + sizes[1];
  CheckCutsAround(dir, full, kWindow, 30);
  CheckCutsAround(dir, full, big_end, 30);
}

TEST(WalTest, CorruptLengthAtTheTailIsCutNotRead) {
  // A torn header claiming a ~4 GiB record: replay must stop at it (and
  // Open cut it off) without trying to read or allocate the record.
  TempDir dir;
  const std::string path = dir.file("wal");
  std::string image = BuildLog(path, {50, 50});
  const size_t intact_size = image.size();
  std::string header;
  Encoder enc(&header);
  enc.PutU32(0xFFFFFFF0u);
  enc.PutU32(0);
  enc.PutU64(0);
  enc.PutU64(2);
  image += header + "tail";
  WriteFileBytes(path, image);
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
  EXPECT_EQ(wal->next_lsn(), 2u);
}

}  // namespace
}  // namespace tempspec
