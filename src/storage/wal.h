// Write-ahead log: durable, CRC-guarded, append-only record stream.
//
// The backlog store writes every operation here before applying it; recovery
// replays the log. A record is framed as a varint body length, a CRC32 of
// the body, then the body: varint epoch, varint LSN, payload. A torn tail
// (partial record, CRC mismatch) terminates replay cleanly — standard crash
// semantics — and Open() cuts it off the file, so later appends stay
// reachable. Open() reads the file once: the same pass that finds the tail
// hands the records to the caller.
//
// Fault model (exercised by tests/storage/crash_recovery_test.cc through the
// failpoint seam in util/failpoint.h):
//   - Appends and syncs retry transient IO errors with bounded backoff.
//   - The log tracks the byte offset covered by the last successful fsync;
//     in failpoint builds, destroying the log while the registry is in the
//     crashed state cuts the file at a seeded point within the unsynced
//     tail, modeling page-cache loss and torn tails at machine crash.
//   - Reset() truncates, fsyncs the file, and fsyncs the parent directory,
//     so a crash immediately after a checkpoint cannot resurrect stale
//     records (and recovery additionally skips stale LSNs — see backlog.cc).
//   - Every record is stamped with the log's current *epoch* (generation
//     number), covered by the record CRC. Backlog compaction renumbers LSNs
//     from zero under a bumped epoch; if the compaction's Reset() never
//     becomes durable, the stale records it should have discarded still sit
//     in the file with old, higher LSNs. Replay() delivers only records of
//     the current epoch, so those stale records can neither alias a fresh
//     LSN nor trip the recovery gap check.
#ifndef TEMPSPEC_STORAGE_WAL_H_
#define TEMPSPEC_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/result.h"

namespace tempspec {

enum class SyncMode : uint8_t {
  kNone,      // rely on the OS page cache (fastest, weakest)
  kEveryN,    // fsync every N appends
  kAlways,    // fsync per append
};

/// \brief Append-only log file with CRC-checked records.
class WriteAheadLog {
 public:
  /// \brief Replay reads the log through a window of this many bytes; a
  /// record longer than the window grows it to that record's size.
  static constexpr size_t kReplayWindowBytes = 64 * 1024;

  /// \brief Receives one replayed record. `payload` is valid only during the
  /// call: records are parsed out of a reused read window.
  using RecordFn = std::function<Status(uint64_t lsn, std::string_view payload)>;

  /// \brief Opens the log, replaying its intact records of `epoch` to
  /// `on_record` and cutting a torn tail off the file before returning.
  /// `epoch` selects which generation of records replay delivers (the
  /// backlog store passes the epoch recovered from its page-file header). A
  /// callback error fails the open.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     SyncMode mode = SyncMode::kNone,
                                                     uint32_t sync_every = 64,
                                                     uint64_t epoch = 0,
                                                     const RecordFn& on_record = {});

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// \brief Appends a record; returns its LSN (sequential from 0, or from
  /// the value set by SetNextLsn).
  Result<uint64_t> Append(std::string_view payload);

  Status Sync();

  /// \brief Replays all intact records of the current epoch from the
  /// beginning; records of other epochs (a superseded generation whose
  /// Reset never became durable) are skipped. Returns the number of records
  /// delivered (to `fn`, when it is set).
  Result<uint64_t> Replay(const RecordFn& fn);

  /// \brief Discards the log contents (after a checkpoint has persisted
  /// everything elsewhere). The truncation is made durable: the file and
  /// its parent directory are fsynced before returning. LSNs continue from
  /// where they were.
  Status Reset();

  /// \brief Pins the next LSN. The backlog store keeps WAL LSNs equal to
  /// global operation indices so recovery can skip records that a completed
  /// checkpoint already persisted.
  void SetNextLsn(uint64_t lsn) { next_lsn_ = lsn; }

  /// \brief Switches to a new generation: subsequent appends are stamped
  /// with `epoch` and replay delivers only that generation. Called by
  /// backlog compaction after it adopts the rewritten page file.
  void SetEpoch(uint64_t epoch) { epoch_ = epoch; }

  uint64_t epoch() const { return epoch_; }
  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t bytes_written() const { return bytes_written_; }
  /// \brief File offset covered by the last successful fsync (bytes at or
  /// beyond this offset may be lost at a machine crash).
  uint64_t synced_bytes() const { return synced_bytes_; }

 private:
  WriteAheadLog(std::string path, int fd, SyncMode mode, uint32_t sync_every)
      : path_(std::move(path)), fd_(fd), mode_(mode), sync_every_(sync_every) {}

  /// \brief One write attempt (may be retried when nothing reached the
  /// file). Sets *wrote_any when any byte was written.
  Status AppendOnce(std::string* record, bool* wrote_any);
  Status SyncOnce();

  std::string path_;
  int fd_;
  SyncMode mode_;
  uint32_t sync_every_;
  uint32_t appends_since_sync_ = 0;
  uint64_t epoch_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t file_size_ = 0;    // current file length in bytes
  uint64_t synced_bytes_ = 0; // durable watermark (<= file_size_)
  uint64_t intact_bytes_ = 0; // end of the last intact record at replay
  std::string frame_;         // Append's reused frame buffer
};

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_WAL_H_
