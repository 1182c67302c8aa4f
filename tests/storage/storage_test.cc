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
#include "storage/encoding.h"
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
    // Inside the payload: the frame header is a 1-byte length, the 4-byte
    // CRC, a 1-byte epoch and a 1-byte LSN.
    std::fseek(f, 9, SEEK_SET);
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
// window's first boundary inside a header's length field, inside its CRC,
// at its LSN and inside a payload, add a record larger than the window,
// then cut the file at every byte offset around those points: Replay must
// deliver what a whole-file decode delivers, and Open must cut the tail at
// the same byte.

using WalRecords = std::vector<std::pair<uint64_t, std::string>>;

/// Bytes of the frame that holds a `payload_size`-byte payload at `lsn`
/// (epoch 0): varint body length, CRC, varint epoch, varint LSN, payload.
size_t FrameBytes(size_t payload_size, uint64_t lsn) {
  const size_t body = VarintSize(0) + VarintSize(lsn) + payload_size;
  return VarintSize(body) + 4 + body;
}

/// Decodes a whole log image the straightforward way (the reference).
WalRecords ReferenceDecode(const std::string& bytes, uint64_t* intact) {
  WalRecords records;
  size_t pos = 0;
  while (pos < bytes.size()) {
    std::string_view rest = std::string_view(bytes).substr(pos);
    const auto len = GetVarint(&rest);
    if (!len.ok() || rest.size() < 4) break;
    Decoder crc_dec(rest.substr(0, 4));
    const uint32_t crc = crc_dec.GetU32().ValueOrDie();
    rest.remove_prefix(4);
    if (len.ValueOrDie() > rest.size()) break;
    std::string_view body = rest.substr(0, len.ValueOrDie());
    if (Crc32(body) != crc) break;
    const size_t frame = bytes.size() - pos - rest.size() + body.size();
    GetVarint(&body).ValueOrDie();  // epoch: every record here is epoch 0
    const uint64_t lsn = GetVarint(&body).ValueOrDie();
    records.emplace_back(lsn, std::string(body));
    pos += frame;
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
  // The second record's header starts `offset` bytes before the boundary.
  // Its 200-byte payload takes a 2-byte length, so 1 puts the boundary in
  // its length field, 4 in its CRC, 7 at its LSN and 18 ten bytes into its
  // payload.
  for (const size_t offset : {size_t{1}, size_t{4}, size_t{7}, size_t{18}}) {
    SCOPED_TRACE("second header starts " + std::to_string(offset) +
                 " bytes before the window boundary");
    TempDir dir;
    // The first frame's header: a 3-byte length, CRC, epoch and LSN.
    const size_t first = kWindow - offset - (3 + 4 + 1 + 1);
    ASSERT_EQ(FrameBytes(first, 0), kWindow - offset);
    const std::string full =
        BuildLog(dir.file("wal"), {first, 200, 200, 3});
    ASSERT_EQ(full.size(), kWindow - offset + FrameBytes(200, 1) +
                               FrameBytes(200, 2) + FrameBytes(3, 3));
    CheckCutsAround(dir, full, kWindow, 40);
    CheckCutsAround(dir, full, full.size() - 40, 40);  // through the end
  }
}

TEST(WalTest, RecordLargerThanTheWindowReplays) {
  constexpr size_t kWindow = WriteAheadLog::kReplayWindowBytes;
  TempDir dir;
  const std::vector<size_t> sizes = {10, 2 * kWindow + 123, 10};
  const std::string full = BuildLog(dir.file("wal"), sizes);
  const size_t big_end = FrameBytes(sizes[0], 0) + FrameBytes(sizes[1], 1);
  CheckCutsAround(dir, full, kWindow, 30);
  CheckCutsAround(dir, full, big_end, 30);
}

TEST(WalTest, CorruptLengthAtTheTailIsCutNotRead) {
  // A torn header claiming a ~4 GiB record: replay must stop at it (and
  // Open cut it off) without trying to read or allocate the record. The
  // same holds for a length near 2^64 and for one that overflows 64 bits.
  std::string overlong(11, '\xFF');
  overlong += '\x01';
  std::string near_max;
  PutVarint(~0ull, &near_max);
  std::string four_gib;
  PutVarint(0xFFFFFFF0u, &four_gib);
  for (const std::string& length : {four_gib, near_max, overlong}) {
    SCOPED_TRACE(std::to_string(length.size()) + "-byte length field");
    TempDir dir;
    const std::string path = dir.file("wal");
    std::string image = BuildLog(path, {50, 50});
    const size_t intact_size = image.size();
    std::string header = length;
    Encoder enc(&header);
    enc.PutU32(0);  // CRC
    enc.PutVarint(0);  // epoch
    enc.PutVarint(2);  // LSN
    image += header + "tail";
    WriteFileBytes(path, image);
    ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(path));
    EXPECT_EQ(std::filesystem::file_size(path), intact_size);
    EXPECT_EQ(wal->next_lsn(), 2u);
  }
}

TEST(WalTest, AppendFramesEachRecordCompactly) {
  // A 3-byte payload at LSN 300 under epoch 1: a 1-byte length, the CRC, a
  // 1-byte epoch and a 2-byte LSN.
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto wal, WriteAheadLog::Open(dir.file("wal"),
                                                     SyncMode::kNone, 64,
                                                     /*epoch=*/1));
  wal->SetNextLsn(300);
  ASSERT_OK(wal->Append("abc").status());
  EXPECT_EQ(wal->bytes_written(), 1u + 4u + 1u + 2u + 3u);
  const std::string bytes = ReadFileBytes(dir.file("wal"));
  ASSERT_EQ(bytes.size(), 11u);
  EXPECT_EQ(bytes[0], 6);  // body: epoch, LSN, payload
  EXPECT_EQ(bytes.substr(5), std::string("\x01\xAC\x02" "abc"));
}

}  // namespace
}  // namespace tempspec
