#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/encoding.h"
#include "storage/serde.h"
#include "util/failpoint.h"

namespace tempspec {

namespace {
// Frame: varint body length, u32 CRC of the body, then the body (varint
// epoch, varint LSN, payload). The header is at most this long.
constexpr size_t kMaxFrameHeader = 10 + 4;
}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, SyncMode mode, uint32_t sync_every, uint64_t epoch,
    const RecordFn& on_record) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open WAL '", path, "': ", std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat WAL '", path, "': ", std::strerror(err));
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, fd, mode, sync_every == 0 ? 1 : sync_every));
  wal->epoch_ = epoch;
  // Bytes already on disk at open are presumed durable.
  wal->file_size_ = static_cast<uint64_t>(st.st_size);
  wal->synced_bytes_ = wal->file_size_;
  // One pass delivers the records and learns the next LSN and the intact
  // length.
  TS_RETURN_NOT_OK(wal->Replay(on_record).status());
  // Cut a torn or corrupt tail off the file: appends land at its end, and a
  // record written beyond the damage would be unreachable at every later
  // replay, so an acknowledged write would be lost at the next restart.
  if (wal->intact_bytes_ < wal->file_size_) {
    if (::ftruncate(fd, static_cast<off_t>(wal->intact_bytes_)) != 0 ||
        ::fsync(fd) != 0) {
      return Status::IOError("cannot cut the damaged tail of WAL '", path,
                             "': ", std::strerror(errno));
    }
    wal->file_size_ = wal->intact_bytes_;
    wal->synced_bytes_ = wal->intact_bytes_;
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
#ifdef TEMPSPEC_FAILPOINTS
    // Simulated machine crash: bytes appended since the last successful
    // fsync are not guaranteed durable. Cut the file at a seeded point
    // within the unsynced tail — anywhere from "nothing lost" to "torn
    // mid-record" — before recovery reopens it.
    FailpointRegistry& registry = FailpointRegistry::Instance();
    if (registry.crashed()) {
      struct stat st;
      if (::fstat(fd_, &st) == 0) {
        const uint64_t size = static_cast<uint64_t>(st.st_size);
        const uint64_t lo = synced_bytes_ < size ? synced_bytes_ : size;
        const uint64_t cut = registry.CrashCut(lo, size);
        if (cut < size && ::ftruncate(fd_, static_cast<off_t>(cut)) != 0) {
          // If the cut silently failed, the "machine crash" model degrades:
          // the unsynced tail survives and a crash test would assert
          // against the wrong file contents. Fail hard instead.
          std::fprintf(stderr,
                       "tempspec: simulated-crash ftruncate of '%s' to %llu "
                       "bytes failed: %s\n",
                       path_.c_str(), static_cast<unsigned long long>(cut),
                       std::strerror(errno));
          std::abort();
        }
      }
    }
#endif
    ::close(fd_);
  }
}

Status WriteAheadLog::AppendOnce(std::string* record, bool* wrote_any) {
  size_t want = record->size();
  Status injected = Status::OK();
#ifdef TEMPSPEC_FAILPOINTS
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::WriteDecision decision =
        registry.OnWrite("wal.append", record->data(), record->size());
    want = decision.write_len;
    injected = std::move(decision.after);
  }
#endif
  size_t done = 0;
  while (done < want) {
    ssize_t n = ::write(fd_, record->data() + done, want - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      file_size_ += done;
      return Status::IOError("WAL append failed: ", std::strerror(errno));
    }
    if (n > 0) *wrote_any = true;
    done += static_cast<size_t>(n);
  }
  file_size_ += done;
  if (!injected.ok()) return injected;
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(std::string_view payload) {
  const uint64_t lsn = next_lsn_;
  // The CRC covers the epoch and LSN as well as the payload: recovery
  // routes records by epoch and LSN, so an unprotected header byte would
  // turn silent corruption into a bogus replay. The frame is built in one
  // reused buffer, the CRC patched in once the body is in place.
  std::string& record = frame_;
  record.clear();
  PutVarint(VarintSize(epoch_) + VarintSize(lsn) + payload.size(), &record);
  const size_t crc_at = record.size();
  record.append(4, '\0');
  PutVarint(epoch_, &record);
  PutVarint(lsn, &record);
  record.append(payload.data(), payload.size());
  const uint32_t crc = Crc32(std::string_view(record).substr(crc_at + 4));
  for (int i = 0; i < 4; ++i) {
    record[crc_at + i] = static_cast<char>(crc >> (8 * i));
  }

  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    bool wrote_any = false;
    st = AppendOnce(&record, &wrote_any);
    if (st.ok()) break;
    // A partial record may already be on disk: retrying would append a
    // duplicate after the torn bytes, so only retry clean failures.
    if (wrote_any || !st.IsIOError()) break;
  }
  TS_RETURN_NOT_OK(st);
  bytes_written_ += record.size();
  ++next_lsn_;
  TS_COUNTER_INC("storage.wal.appends");
  TS_COUNTER_ADD("storage.wal.bytes_appended", record.size());
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalAppend, lsn, record.size(),
            "");

  if (mode_ == SyncMode::kAlways ||
      (mode_ == SyncMode::kEveryN && ++appends_since_sync_ >= sync_every_)) {
    TS_RETURN_NOT_OK(Sync());
  }
  return lsn;
}

Status WriteAheadLog::SyncOnce() {
#ifdef TEMPSPEC_FAILPOINTS
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::SyncDecision decision = registry.OnSync("wal.sync");
    if (!decision.after.ok()) return std::move(decision.after);
    // Dropped sync: report success without syncing; the durable watermark
    // stays put, so a later simulated crash can lose this tail.
    if (decision.skip) return Status::OK();
  }
#endif
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("WAL fsync failed: ", std::strerror(errno));
  }
  synced_bytes_ = file_size_;
  TS_COUNTER_INC("storage.wal.syncs");
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalSync, synced_bytes_, 0, "");
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  appends_since_sync_ = 0;
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    st = SyncOnce();
    if (st.ok() || !st.IsIOError()) break;
  }
  return st;
}

Result<uint64_t> WriteAheadLog::Replay(const RecordFn& fn) {
  // Read via a separate descriptor so the append offset is untouched.
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot reopen WAL '", path_, "' for replay");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat WAL '", path_, "' for replay: ",
                           std::strerror(err));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  // Records are parsed out of a fixed read window, so replay memory does
  // not grow with the log. Only a record longer than the window grows it,
  // and only to that record's size.
  std::string window(kReplayWindowBytes, '\0');
  size_t begin = 0;  // window[begin, end) holds the unparsed bytes read so far
  size_t end = 0;
  uint64_t read_bytes = 0;
  // Makes `need` bytes available at window[begin]; false when the file ends
  // (or a read fails) first.
  const auto fill = [&](size_t need) {
    while (end - begin < need) {
      if (window.size() - begin < need) {
        std::memmove(window.data(), window.data() + begin, end - begin);
        end -= begin;
        begin = 0;
        if (window.size() < need) window.resize(need);
      }
      const ssize_t n = ::read(fd, window.data() + end, window.size() - end);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      end += static_cast<size_t>(n);
      read_bytes += static_cast<uint64_t>(n);
    }
    return true;
  };

  uint64_t count = 0;
  uint64_t pos = 0;  // file offset of window[begin]
  uint64_t max_lsn_seen = next_lsn_ == 0 ? 0 : next_lsn_ - 1;
  bool any = next_lsn_ > 0;
  Status status = Status::OK();
  while (pos < file_bytes) {
    const size_t head = static_cast<size_t>(
        std::min<uint64_t>(kMaxFrameHeader, file_bytes - pos));
    if (!fill(head)) break;
    std::string_view header(window.data() + begin, head);
    const Result<uint64_t> body_len = GetVarint(&header);
    // Torn or corrupt tail: a length that never ends, or no room for the
    // CRC. The length is checked against the file before any read, so a
    // corrupt length cannot grow the window.
    if (!body_len.ok() || header.size() < 4) break;
    const size_t header_bytes = head - header.size() + 4;
    if (body_len.ValueOrDie() > file_bytes - pos - header_bytes) break;
    const size_t record_bytes =
        header_bytes + static_cast<size_t>(body_len.ValueOrDie());
    if (!fill(record_bytes)) break;
    const char* frame = window.data() + begin;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(
                 static_cast<uint8_t>(frame[header_bytes - 4 + i]))
             << (8 * i);
    }
    std::string_view body(frame + header_bytes, record_bytes - header_bytes);
    if (Crc32(body) != crc) break;  // corrupt tail
    const Result<uint64_t> epoch = GetVarint(&body);
    const Result<uint64_t> lsn = GetVarint(&body);
    if (!epoch.ok() || !lsn.ok()) break;  // not a frame this log wrote
    if (epoch.ValueOrDie() == epoch_) {
      if (fn) status = fn(lsn.ValueOrDie(), body);
      if (!status.ok()) break;
      if (!any || lsn.ValueOrDie() > max_lsn_seen) {
        max_lsn_seen = lsn.ValueOrDie();
        any = true;
      }
      ++count;
    }
    // Records of another epoch belong to a superseded generation (a
    // compaction whose Reset never became durable): walk past them without
    // delivering or letting their old LSNs advance the counter.
    begin += record_bytes;
    pos += record_bytes;
  }
  TS_COUNTER_ADD("storage.wal.replay_bytes", read_bytes);
  ::close(fd);
  TS_RETURN_NOT_OK(status);
  if (any) next_lsn_ = max_lsn_seen + 1;
  intact_bytes_ = pos;
  return count;
}

Status WriteAheadLog::Reset() {
#ifdef TEMPSPEC_FAILPOINTS
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::SyncDecision decision = registry.OnSync("wal.reset");
    if (!decision.after.ok()) return std::move(decision.after);
    // Dropped reset: the truncation never reaches the disk (modeling a
    // crash that loses it). The stale records stay in the file; recovery
    // must skip them by LSN rather than replaying them twice.
    if (decision.skip) return Status::OK();
  }
#endif
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("WAL truncate failed: ", std::strerror(errno));
  }
  // Make the truncation itself durable: fsync the inode, then the parent
  // directory entry, so a crash right after Reset cannot resurrect the old
  // tail.
  if (::fsync(fd_) != 0) {
    return Status::IOError("WAL fsync after truncate failed: ",
                           std::strerror(errno));
  }
  TS_RETURN_NOT_OK(FsyncParentDirectory(path_));
  bytes_written_ = 0;
  file_size_ = 0;
  synced_bytes_ = 0;
  TS_FLIGHT(FlightCategory::kWal, FlightCode::kWalReset, epoch_, 0, "");
  return Status::OK();
}

}  // namespace tempspec
