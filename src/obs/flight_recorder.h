// Black-box flight recorder: a lock-free, fixed-memory ring of structured
// events recorded from the storage stack (WAL append/sync/reset, page IO,
// checkpoint, recovery, compaction, buffer-pool eviction), the fault layer
// (every failpoint fire), and the decision layer (optimizer plan choice,
// drift verdict transitions, advisor notes).
//
// The metrics registry answers "how many"; EXPLAIN ANALYZE answers "what did
// *this query* do". Neither answers "what was the engine doing just before
// it died" — the question every crash-harness artifact and every real crash
// raises. The flight recorder is that answer: the last `capacity` events are
// always resident in fixed memory, serializable as JSONL by a fatal-signal
// handler, the /debug/events endpoint, and SHOW FLIGHT RECORDER.
//
// Concurrency: one shared ring, multi-writer, any-time readers. A writer
// claims a sequence number with one relaxed fetch_add, waits (in practice
// never — only when a writer lapped a full ring while another writer was
// suspended mid-record) for the slot's previous generation to commit, and
// publishes through a per-slot seqlock: state goes committed(prev) ->
// busy(seq) -> committed(seq), payload words are relaxed atomic stores
// bracketed by release ordering. Readers validate the state on both sides
// of the payload copy and discard torn slots instead of delivering them.
// Every field of a slot is a std::atomic, so concurrent drains are
// TSan-clean by construction, not by suppression.
//
// Compile-out: mirrors obs/metrics.h. The class always compiles; engine
// call sites use TS_FLIGHT, which compiles to nothing unless
// TEMPSPEC_FLIGHTRECORDER is defined (CMake option, default ON), and
// FlightRecorderCompiledIn() lets tests detect a vacuous build.
#ifndef TEMPSPEC_OBS_FLIGHT_RECORDER_H_
#define TEMPSPEC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace tempspec {

/// \brief True when the engine was compiled with TEMPSPEC_FLIGHTRECORDER,
/// i.e. the TS_FLIGHT call sites actually record anything.
bool FlightRecorderCompiledIn();

/// \brief Which subsystem recorded the event.
enum class FlightCategory : uint8_t {
  kWal = 0,
  kPage,
  kBufferPool,
  kCheckpoint,
  kRecovery,
  kCompaction,
  kFault,
  kPlan,
  kDrift,
  kAdvisor,
  kServer,
};
const char* FlightCategoryToString(FlightCategory category);

/// \brief What happened. Codes are namespaced by convention
/// ("wal.append", "fault.inject", ...) via FlightCodeToString.
enum class FlightCode : uint8_t {
  kWalAppend = 0,   // arg0 = lsn, arg1 = record bytes
  kWalSync,         // arg0 = durable bytes after the sync
  kWalReset,        // arg0 = epoch the emptied log continues under
  kPageRead,        // arg0 = page id
  kPageWrite,       // arg0 = page id, arg1 = bytes written
  kDiskSync,        // page-file fsync completed
  kEviction,        // arg0 = evicted page id, arg1 = 1 if it was dirty
  kCheckpointBegin, // arg0 = ops pending persistence, arg1 = total ops
  kCheckpointEnd,   // arg0 = ops now persisted
  kRecoveryBegin,
  kRecoveryPages,      // arg0 = entries scanned off pages, arg1 = pages kept
  kRecoveryQuarantine, // arg0 = first damaged page, arg1 = entries dropped
  kRecoveryWalReplay,  // arg0 = WAL records replayed, arg1 = ops recovered
  kRecoveryEnd,        // arg0 = total recovered ops, arg1 = persisted ops
  kCompactionBegin,    // arg0 = old op count, arg1 = compacted op count
  kCompactionRename,   // arg0 = adopted epoch
  kCompactionEnd,      // arg0 = op count of the new generation
  kFaultInject,        // arg0 = FaultKind, arg1 = site hit count; detail = site
  kCrashLatch,         // registry entered the sticky crashed state
  kPlanChoice,         // arg0 = ExecutionStrategy, arg1 = ScanKernel
  kDriftVerdict,       // arg0 = observed kind, arg1 = lattice distance
  kAdvisorNote,        // arg0 = note count; detail = relation
  kServerStart,        // arg0 = bound port
  kServerStop,         // arg0 = connections served over the lifetime
  kServerAccept,       // arg0 = connection id, arg1 = open connections
  kServerReject,       // arg0 = connection id, arg1 = inflight; detail = why
  kServerRequest,      // arg0 = connection id, arg1 = request bytes
  kServerDeadline,     // arg0 = connection id, arg1 = deadline millis
};
const char* FlightCodeToString(FlightCode code);

/// \brief Bytes of inline detail text per event (longer details truncate).
constexpr size_t kFlightDetailBytes = 24;

/// \brief One drained event (decoded slot).
struct FlightEvent {
  uint64_t seq = 0;       // claim order; strictly increasing across a drain
  uint64_t nanos = 0;     // steady-clock nanoseconds at record time
  uint32_t thread_id = 0; // small per-thread id (ThisThreadFlightId)
  FlightCategory category = FlightCategory::kWal;
  FlightCode code = FlightCode::kWalAppend;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  std::string detail;

  /// \brief Single JSON line: {"seq":..,"nanos":..,"tid":..,
  /// "category":"wal","code":"wal.append","arg0":..,"arg1":..,"detail":".."}.
  std::string ToJson() const;
};

/// \brief This thread's small integer id (assigned on first use).
uint32_t ThisThreadFlightId();

/// \brief The event ring. Fixed memory after construction; capacity rounds
/// up to a power of two.
class FlightRecorder {
 public:
  /// \brief Process-wide instance (what TS_FLIGHT and the surfaces use).
  /// Capacity comes from TEMPSPEC_FLIGHT_CAPACITY when set (clamped to
  /// [64, 1M]); default 4096 slots = 256 KiB.
  static FlightRecorder& Instance();

  explicit FlightRecorder(size_t capacity = 4096);

  /// \brief Records one event. Lock-free fast path: one fetch_add plus
  /// eight relaxed/release stores; `detail` beyond kFlightDetailBytes is
  /// truncated, never allocated.
  void Record(FlightCategory category, FlightCode code, int64_t arg0,
              int64_t arg1, std::string_view detail);

  /// \brief Total events ever recorded (events with seq < head() - capacity
  /// have been overwritten).
  uint64_t head() const { return next_.load(std::memory_order_acquire); }
  size_t capacity() const { return slots_.size(); }

  /// \brief The resident events, oldest first, strictly increasing seq.
  /// Safe under concurrent writers: slots overwritten mid-drain are skipped.
  std::vector<FlightEvent> Snapshot() const;

  /// \brief Snapshot() as JSONL (one event per line).
  std::string ToJsonl() const;

  /// \brief Serializes the ring to `fd` as JSONL. Async-signal-safe: no
  /// allocation, no locks, manual formatting, write(2) only.
  void DumpToFd(int fd) const;

  /// \brief DumpToFd to a fresh file at `path` (truncating). Used by the
  /// crash harness after simulated crashes, where the process survives.
  Status DumpToFile(const std::string& path) const;

  /// \brief Installs a fatal-signal handler (SIGABRT/SEGV/BUS/ILL/FPE) that
  /// dumps the process-wide ring to `path` and re-raises. `path` is copied
  /// into static storage; later calls replace it.
  static void InstallCrashHandler(const char* path);

  /// \brief InstallCrashHandler(TEMPSPEC_FLIGHT_DUMP) when that env var is
  /// set (called at tempspec_serve startup).
  static void MaybeInstallFromEnv();

 private:
  // 64 bytes: the seqlock state plus seven payload words.
  //   word[0] nanos, word[1] tid<<32 | category<<8 | code,
  //   word[2..3] arg0/arg1, word[4..6] detail bytes (zero-padded).
  // state encodes the slot generation: 0 = never written,
  // 2*seq+1 = write of `seq` in progress, 2*seq+2 = `seq` committed.
  struct alignas(64) Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<uint64_t> word[7];
  };

  /// \brief Seqlock-validated copy of the slot holding `seq`; false when
  /// torn or already overwritten.
  bool ReadSlotWords(uint64_t seq, uint64_t words[7]) const;

  std::atomic<uint64_t> next_{0};
  uint64_t mask_;
  std::vector<Slot> slots_;
};

// TS_FLIGHT(category, code, arg0, arg1, detail) — the engine-side record
// macro. Compiles to nothing (arguments unevaluated) unless
// TEMPSPEC_FLIGHTRECORDER is defined. TS_FLIGHT_ONLY(code) guards larger
// blocks, mirroring TS_METRICS_ONLY.
#ifdef TEMPSPEC_FLIGHTRECORDER
#define TS_FLIGHT_ONLY(code) code
#define TS_FLIGHT(category, code, arg0, arg1, detail)                   \
  ::tempspec::FlightRecorder::Instance().Record(                        \
      (category), (code), static_cast<int64_t>(arg0),                   \
      static_cast<int64_t>(arg1), (detail))
#else
#define TS_FLIGHT_ONLY(code)
#define TS_FLIGHT(category, code, arg0, arg1, detail) \
  do {                                                \
  } while (0)
#endif  // TEMPSPEC_FLIGHTRECORDER

}  // namespace tempspec

#endif  // TEMPSPEC_OBS_FLIGHT_RECORDER_H_
