// The backlog representation of a temporal relation.
//
// Section 2 lists admissible physical representations; we implement the
// backlog model of [JMRS90] ("a backlog relation of insertion, modification,
// and deletion operations (tuples) with single transaction time-stamps"):
// every update is an appended, transaction-time-stamped operation, and any
// historical state is reproduced by replaying the prefix of operations up to
// the requested transaction time. MaterializeState() below is that replay,
// kept as the reference answer over an operation list. The engine answers
// rollback by scanning the transaction-time prefix of the relation's
// columnar stamps instead (query/executor.h); it returns the same elements
// in insertion order, with their final deletion stamps.
//
// Durability: each operation is written to the WAL before being applied.
// The WAL plus the slotted page file are the only copy of the backlog; the
// store keeps no operation in memory, only counts. Checkpoint() copies the
// WAL tail into the page file and resets the WAL. Open() streams the page
// file's operations, then the WAL tail's, to a visitor.
//
// Crash-recovery protocol (exercised by tests/storage/crash_recovery_test.cc):
//   - WAL record LSNs equal global operation indices. The page file holds a
//     CRC-guarded prefix of the operation history; its length is *derived*
//     by scanning (never trusted from a header), so a torn checkpoint can
//     only shorten it. The scan quarantines everything from the first
//     damaged page onward — truncating the file, not just stopping — so a
//     post-recovery checkpoint can never strand durable batches behind a
//     still-damaged page.
//   - Each checkpoint batch starts on a fresh page, so checkpointing never
//     rewrites a page whose records the WAL no longer covers.
//   - Checkpoint order: read the batch back from the WAL, persist pages,
//     fsync, then reset the WAL (truncate + fsync file and directory). A
//     crash between the last two leaves overlapping copies; recovery skips
//     WAL records with lsn < the scanned page count and rejects any LSN gap
//     as corruption. The read-back uses that same filter, and a batch that
//     does not read back whole is never persisted.
//   - Compaction (ReplaceAll) rewrites the page file through a side file
//     adopted by atomic rename, under a bumped generation epoch stamped
//     into the header and every WAL record: a crash resolves to exactly the
//     old or exactly the new generation, and stale WAL records (old epoch,
//     old LSN numbering) are discarded at replay.
//   - The header records a format version; unknown versions are rejected at
//     open instead of being mis-recovered as an empty store.
//   - After any unrecoverable IO failure the store turns read-only
//     (fail-stop): later appends could otherwise land beyond a torn WAL
//     tail and be silently unreachable at replay.
#ifndef TEMPSPEC_STORAGE_BACKLOG_H_
#define TEMPSPEC_STORAGE_BACKLOG_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/element.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/result.h"

namespace tempspec {

class TraceContext;

enum class BacklogOpType : uint8_t {
  kInsert = 1,
  kLogicalDelete = 2,
};

/// \brief One operation of the backlog. A modification is represented, per
/// Section 2, as a logical deletion followed by an insertion with a fresh
/// element surrogate.
struct BacklogEntry {
  BacklogOpType op = BacklogOpType::kInsert;
  TimePoint tt;               // transaction time of the operation
  Element element;            // the inserted element (op == kInsert)
  ElementSurrogate target = kInvalidElementSurrogate;  // op == kLogicalDelete

  std::string Encode() const;
  static Result<BacklogEntry> Decode(std::string_view payload);
};

/// \brief Receives each recovered operation, in append order.
using BacklogVisitor = std::function<Status(BacklogEntry&& entry)>;

/// \brief Append-only operation log with optional durability. It counts the
/// operations it holds but keeps none of them in memory.
class BacklogStore {
 public:
  struct Options {
    /// Empty = in-memory only (no WAL, no page file): the store only counts.
    std::string directory;
    SyncMode sync_mode = SyncMode::kNone;
    uint32_t sync_every = 64;
    size_t buffer_pool_pages = 64;
  };

  /// \brief Opens a store, streaming every persisted operation to
  /// `on_recovered` (page scan, then WAL replay). A visitor error aborts the
  /// open.
  static Result<std::unique_ptr<BacklogStore>> Open(
      Options options, const BacklogVisitor& on_recovered = {});

  /// \brief Appends the insertion of `e` at its tt_begin (WAL first when
  /// durable).
  Status AppendInsert(const Element& e);
  /// \brief Appends the logical deletion of element `target` at `tt`.
  Status AppendDelete(TimePoint tt, ElementSurrogate target);

  /// \brief Operations held, persisted or still in the WAL.
  size_t size() const { return size_; }
  /// \brief Total encoded size of all operations.
  size_t encoded_bytes() const { return encoded_bytes_; }
  /// \brief Latest transaction time of any operation (Min when empty).
  TimePoint last_tt() const { return last_tt_; }

  /// \brief Copies the WAL tail into the page file and resets the WAL.
  /// Returns Corruption, and fail-stops, if the WAL does not read back
  /// exactly the operations appended since the last checkpoint. No-op for
  /// in-memory stores.
  Status Checkpoint();

  /// \brief Replaces the whole operation history (backlog compaction, used
  /// by vacuuming). Durable stores are rewritten crash-atomically: the new
  /// generation is built in a side file and adopted by rename under a
  /// bumped epoch. No page guards may be outstanding. An optional trace
  /// span receives the side_build / rename / wal_reset stage timings.
  Status ReplaceAll(const std::vector<BacklogEntry>& entries,
                    TraceContext* trace = nullptr);

  bool durable() const { return wal_ != nullptr; }
  uint64_t persisted_entries() const { return persisted_entries_; }
  /// \brief Generation number of the on-disk state; bumped by ReplaceAll.
  uint64_t epoch() const { return epoch_; }
  const BufferPool* buffer_pool() const { return pool_.get(); }
  /// \brief True once an unrecoverable IO failure turned the store
  /// read-only; reopen from disk to recover.
  bool io_failed() const { return io_failed_; }

 private:
  BacklogStore() = default;

  Status AppendPayload(std::string_view payload, TimePoint tt);
  void Count(size_t bytes, TimePoint tt);
  Status Deliver(BacklogEntry&& entry, size_t bytes,
                 const BacklogVisitor& visitor);
  /// A WAL record callback that hands `fn`, in LSN order, the records the
  /// page file does not hold, counting them in `*delivered`.
  WriteAheadLog::RecordFn WalTail(
      uint64_t* delivered, std::function<Status(std::string_view payload)> fn);
  Status RecoverFromPages(const BacklogVisitor& visitor);
  Status WriteHeaderPage(BufferPool* pool, uint64_t epoch);
  Status CheckpointInternal(TraceContext* trace);
  static Status PersistPayloads(BufferPool* pool,
                                const std::vector<std::string>& payloads);

  size_t buffer_pool_pages_ = 64;

  uint64_t size_ = 0;
  size_t encoded_bytes_ = 0;
  TimePoint last_tt_ = TimePoint::Min();
  uint64_t persisted_entries_ = 0;
  uint64_t epoch_ = 0;
  bool io_failed_ = false;
  std::string payload_;  // the append path's reused encode buffer

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<WriteAheadLog> wal_;
};

/// \brief Replays operations with tt <= `tt` (in transaction-time order):
/// the elements alive at `tt`. The reference answer for rollback.
std::vector<Element> MaterializeState(const std::vector<BacklogEntry>& ops,
                                      TimePoint tt);

/// \brief Every element ever inserted, with its final existence interval.
std::vector<Element> ReconstructElements(const std::vector<BacklogEntry>& ops);

/// \brief The inverse of ReconstructElements: each element is an insert at
/// tt_begin, plus a delete at tt_end if it has one, in transaction-time
/// order, a delete first at a shared tt (Modify). A relation applies an
/// operation only once its append is acknowledged, so over its elements()
/// this is the history its backlog holds.
std::vector<BacklogEntry> OperationsOf(std::span<const Element> elements);

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_BACKLOG_H_
