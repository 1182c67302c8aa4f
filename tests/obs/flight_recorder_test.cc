// Tests for the black-box flight recorder: slot round-trips, ring wrap,
// detail truncation, JSONL serialization (parsed with testing_json.h), the
// multi-writer seqlock protocol under a concurrent drain (the TSan job runs
// this), the dump-to-file path the crash harness uses, and the
// TEMPSPEC_FLIGHTRECORDER compile flag in both directions.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/backlog.h"
#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

using testing::JsonParser;
using testing::JsonValue;
using testing::MakeEventElement;
using testing::T;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tempspec_flight_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(FlightRecorderTest, RecordAndSnapshotRoundTrip) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kWal, FlightCode::kWalAppend, 7, 123, "first");
  rec.Record(FlightCategory::kPage, FlightCode::kPageWrite, 3, 4096, "");
  rec.Record(FlightCategory::kFault, FlightCode::kFaultInject, -2, 1,
             "wal.append");
  ASSERT_EQ(rec.head(), 3u);

  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].category, FlightCategory::kWal);
  EXPECT_EQ(events[0].code, FlightCode::kWalAppend);
  EXPECT_EQ(events[0].arg0, 7);
  EXPECT_EQ(events[0].arg1, 123);
  EXPECT_EQ(events[0].detail, "first");
  EXPECT_EQ(events[0].thread_id, ThisThreadFlightId());

  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].detail, "");
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[2].arg0, -2) << "negative args must survive the packing";
  EXPECT_EQ(events[2].detail, "wal.append");
  EXPECT_LE(events[0].nanos, events[1].nanos);
  EXPECT_LE(events[1].nanos, events[2].nanos);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u) << "floor of two slots";
}

TEST(FlightRecorderTest, DetailTruncatesAtInlineBudget) {
  FlightRecorder rec(64);
  const std::string long_detail(2 * kFlightDetailBytes, 'x');
  rec.Record(FlightCategory::kAdvisor, FlightCode::kAdvisorNote, 0, 0,
             long_detail);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, std::string(kFlightDetailBytes, 'x'));
}

TEST(FlightRecorderTest, WrapKeepsTheMostRecentEvents) {
  FlightRecorder rec(64);
  for (int64_t i = 0; i < 200; ++i) {
    rec.Record(FlightCategory::kWal, FlightCode::kWalAppend, i, 0, "");
  }
  EXPECT_EQ(rec.head(), 200u);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 64u) << "exactly one ring of events resident";
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 136 + i) << "contiguous tail, oldest first";
    EXPECT_EQ(events[i].arg0, static_cast<int64_t>(136 + i));
  }
}

TEST(FlightRecorderTest, JsonlParsesWithExpectedSchema) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kWal, FlightCode::kWalAppend, 7, 123, "plain");
  rec.Record(FlightCategory::kFault, FlightCode::kFaultInject, -5, 2,
             "we\"ird\\detail\n\x01");
  const std::string jsonl = rec.ToJsonl();

  std::vector<std::string> lines;
  size_t start = 0;
  while (start < jsonl.size()) {
    const size_t nl = jsonl.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "every event line ends in newline";
    lines.push_back(jsonl.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);

  ASSERT_OK_AND_ASSIGN(JsonValue first, JsonParser::Parse(lines[0]));
  EXPECT_EQ(first.at("seq").number, "0");
  EXPECT_EQ(first.at("category").string, "wal");
  EXPECT_EQ(first.at("code").string, "wal.append");
  EXPECT_EQ(first.at("arg0").number, "7");
  EXPECT_EQ(first.at("arg1").number, "123");
  EXPECT_EQ(first.at("detail").string, "plain");
  EXPECT_FALSE(first.at("nanos").number.empty());
  EXPECT_FALSE(first.at("tid").number.empty());

  // Hostile detail bytes must be escaped, not break the line format.
  ASSERT_OK_AND_ASSIGN(JsonValue second, JsonParser::Parse(lines[1]));
  EXPECT_EQ(second.at("category").string, "fault");
  EXPECT_EQ(second.at("code").string, "fault.inject");
  EXPECT_EQ(second.at("arg0").number, "-5");
  EXPECT_EQ(second.at("detail").string, "we\"ird\\detail\n\x01");
}

TEST(FlightRecorderTest, DumpToFileMatchesSnapshot) {
  TempDir dir;
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kCheckpoint, FlightCode::kCheckpointBegin, 10, 20,
             "");
  rec.Record(FlightCategory::kCheckpoint, FlightCode::kCheckpointEnd, 20, 0,
             "");
  const std::string path = dir.path() + "/flight.jsonl";
  ASSERT_OK(rec.DumpToFile(path));

  // The signal-safe writer and the allocating writer must agree on the
  // schema: the dump parses line by line with identical field values.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::vector<FlightEvent> events = rec.Snapshot();
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(n, events.size());
    ASSERT_OK_AND_ASSIGN(JsonValue v, JsonParser::Parse(line));
    EXPECT_EQ(v.at("seq").number, std::to_string(events[n].seq));
    EXPECT_EQ(v.at("category").string,
              FlightCategoryToString(events[n].category));
    EXPECT_EQ(v.at("code").string, FlightCodeToString(events[n].code));
    EXPECT_EQ(v.at("arg0").number, std::to_string(events[n].arg0));
    EXPECT_EQ(v.at("arg1").number, std::to_string(events[n].arg1));
    ++n;
  }
  EXPECT_EQ(n, events.size());
}

TEST(FlightRecorderTest, DumpToFileRejectsUnwritablePath) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kWal, FlightCode::kWalAppend, 0, 0, "");
  EXPECT_NOT_OK(rec.DumpToFile("/nonexistent-dir/flight.jsonl"));
}

TEST(FlightRecorderTest, MultiWriterStressWithConcurrentDrain) {
  // 8 writers hammer a deliberately small ring (every record wraps) while a
  // drainer snapshots continuously. The seqlock contract under test: every
  // delivered event is internally consistent (arg1 == 2*arg0 + 1 — a torn
  // slot would mix two writers' payloads), seqs are strictly increasing
  // within a drain, and nothing is delivered twice. The TSan CI job runs
  // this test to prove the all-atomic slot layout is race-free.
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 2000;
  FlightRecorder rec(256);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> unordered{0};
  std::atomic<uint64_t> drains{0};

  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<FlightEvent> events = rec.Snapshot();
      uint64_t prev_seq = 0;
      bool have_prev = false;
      for (const FlightEvent& e : events) {
        if (e.arg1 != 2 * e.arg0 + 1) torn.fetch_add(1);
        if (have_prev && e.seq <= prev_seq) unordered.fetch_add(1);
        prev_seq = e.seq;
        have_prev = true;
      }
      drains.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        const int64_t arg0 = t * kPerThread + i;
        rec.Record(FlightCategory::kPage, FlightCode::kPageWrite, arg0,
                   2 * arg0 + 1, "stress");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  drainer.join();

  EXPECT_EQ(torn.load(), 0u) << "a torn slot was delivered";
  EXPECT_EQ(unordered.load(), 0u) << "drain order must follow claim order";
  EXPECT_GT(drains.load(), 0u);
  EXPECT_EQ(rec.head(), static_cast<uint64_t>(kThreads) * kPerThread);

  // Quiesced: the final drain sees one full ring of committed events with
  // contiguous seqs and per-thread ids stamped in.
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), rec.capacity());
  std::set<uint32_t> tids;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, rec.head() - rec.capacity() + i);
    EXPECT_EQ(events[i].arg1, 2 * events[i].arg0 + 1);
    EXPECT_EQ(events[i].detail, "stress");
    tids.insert(events[i].thread_id);
  }
  EXPECT_GE(tids.size(), 1u);
}

TEST(FlightRecorderTest, ThreadIdsAreSmallAndDistinct) {
  const uint32_t mine = ThisThreadFlightId();
  EXPECT_EQ(ThisThreadFlightId(), mine) << "stable within a thread";
  uint32_t other = mine;
  std::thread([&other] { other = ThisThreadFlightId(); }).join();
  EXPECT_NE(other, mine);
}

// --- Compile-flag discipline, both directions -------------------------------

TEST(FlightRecorderCompileFlagTest, MacroMatchesCompiledInFlag) {
  FlightRecorder& rec = FlightRecorder::Instance();
  const uint64_t before = rec.head();
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalAppend, 1, 2, "unit");
  if (FlightRecorderCompiledIn()) {
    EXPECT_EQ(rec.head(), before + 1);
  } else {
    EXPECT_EQ(rec.head(), before) << "TS_FLIGHT must compile to nothing";
  }
}

TEST(FlightRecorderCompileFlagTest, EngineWorkloadRecordsIffCompiledIn) {
  // Drive a real durable workload through the storage stack. In a
  // TEMPSPEC_FLIGHTRECORDER tree the process-wide ring must pick up WAL and
  // checkpoint events from the engine call sites; in an OFF tree the
  // identical workload must leave the ring untouched (zero overhead means
  // zero events, not fewer events).
  TempDir dir;
  const uint64_t before = FlightRecorder::Instance().head();

  BacklogStore::Options options;
  options.directory = dir.path();
  ASSERT_OK_AND_ASSIGN(auto store, BacklogStore::Open(options));
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_OK(store->AppendInsert(MakeEventElement(
        T(10 + i), T(5 + i), static_cast<ElementSurrogate>(i + 1), 1)));
  }
  ASSERT_OK(store->Checkpoint());

  const uint64_t after = FlightRecorder::Instance().head();
  if (FlightRecorderCompiledIn()) {
    EXPECT_GT(after, before);
    bool saw_wal_append = false;
    bool saw_checkpoint_end = false;
    for (const FlightEvent& e : FlightRecorder::Instance().Snapshot()) {
      if (e.seq < before) continue;
      if (e.code == FlightCode::kWalAppend) saw_wal_append = true;
      if (e.code == FlightCode::kCheckpointEnd) saw_checkpoint_end = true;
    }
    EXPECT_TRUE(saw_wal_append);
    EXPECT_TRUE(saw_checkpoint_end);
  } else {
    EXPECT_EQ(after, before);
    EXPECT_EQ(FlightRecorder::Instance().head(), 0u)
        << "nothing in this binary records when the flag is off";
  }
}

}  // namespace
}  // namespace tempspec
