#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/flight_recorder.h"
#include "util/failpoint.h"

namespace tempspec {

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '", path, "' for fsync: ",
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed on '", path, "': ",
                           std::strerror(err));
  }
  return Status::OK();
}

Status FsyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return FsyncPath(slash == std::string::npos ? "." : path.substr(0, slash));
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open '", path, "': ", std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat '", path, "': ", std::strerror(err));
  }
  const uint64_t pages = static_cast<uint64_t>(st.st_size) / kPageSize;
  if (st.st_size % kPageSize != 0) {
    // A trailing partial page is what a crash mid-extension leaves behind;
    // discard the torn tail rather than refusing the whole file. (Records on
    // complete pages are CRC-guarded by the layer above.)
    if (::ftruncate(fd, static_cast<off_t>(pages * kPageSize)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("cannot truncate torn page off '", path, "': ",
                             std::strerror(err));
    }
  }
  return std::unique_ptr<DiskManager>(new DiskManager(path, fd, pages));
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<PageId> DiskManager::AllocatePage() {
  Page zero;
  zero.Zero();
  const PageId id = page_count_;
  TS_RETURN_NOT_OK(WritePageInternal(id, zero));
  page_count_ = id + 1;
  return id;
}

Status DiskManager::ReadPageOnce(PageId id, Page* out) const {
#ifdef TEMPSPEC_FAILPOINTS
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    TS_RETURN_NOT_OK(registry.OnRead("disk.read_page"));
  }
#endif
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  ssize_t n = ::pread(fd_, out->data, kPageSize, offset);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("short read of page ", id, " from '", path_, "'");
  }
  TS_FLIGHT(FlightCategory::kPage, FlightCode::kPageRead, id, 0, "");
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, Page* out) const {
  if (id >= page_count_) {
    return Status::OutOfRange("page ", id, " beyond end of file (", page_count_,
                              " pages)");
  }
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    st = ReadPageOnce(id, out);
    if (st.ok() || !st.IsIOError()) break;
  }
  return st;
}

Status DiskManager::WritePage(PageId id, const Page& page) {
  if (id >= page_count_) {
    return Status::OutOfRange("page ", id, " beyond end of file (", page_count_,
                              " pages); AllocatePage first");
  }
  return WritePageInternal(id, page);
}

Status DiskManager::WritePageOnce(PageId id, const Page& page) {
  const char* src = page.data;
  size_t want = kPageSize;
  Status injected = Status::OK();
#ifdef TEMPSPEC_FAILPOINTS
  Page scratch;
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    // Corrupting faults mutate the buffer; work on a copy so only the disk
    // image is damaged, never the caller's in-memory frame.
    std::memcpy(scratch.data, page.data, kPageSize);
    FailpointRegistry::WriteDecision decision =
        registry.OnWrite("disk.write_page", scratch.data, kPageSize);
    src = scratch.data;
    want = decision.write_len;
    injected = std::move(decision.after);
  }
#endif
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  size_t done = 0;
  while (done < want) {
    ssize_t n = ::pwrite(fd_, src + done, want - done,
                         offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write of page ", id, " to '", path_, "' failed: ",
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  if (!injected.ok()) return injected;
  TS_FLIGHT(FlightCategory::kPage, FlightCode::kPageWrite, id, done, "");
  return Status::OK();
}

Status DiskManager::WritePageInternal(PageId id, const Page& page) {
  // pwrite at a fixed offset is idempotent, so transient failures (even
  // partial ones) are safe to retry.
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    st = WritePageOnce(id, page);
    if (st.ok() || !st.IsIOError()) break;
  }
  return st;
}

Status DiskManager::SyncOnce() {
#ifdef TEMPSPEC_FAILPOINTS
  if (FailpointRegistry& registry = FailpointRegistry::Instance();
      registry.active()) {
    FailpointRegistry::SyncDecision decision = registry.OnSync("disk.sync");
    if (!decision.after.ok()) return std::move(decision.after);
    if (decision.skip) return Status::OK();
  }
#endif
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed on '", path_, "': ",
                           std::strerror(errno));
  }
  TS_FLIGHT(FlightCategory::kPage, FlightCode::kDiskSync, page_count_, 0, "");
  return Status::OK();
}

Status DiskManager::Sync() {
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) IoRetryBackoff(attempt);
    st = SyncOnce();
    if (st.ok() || !st.IsIOError()) break;
  }
  return st;
}

Status DiskManager::TruncateToPages(uint64_t pages) {
  if (pages > page_count_) {
    return Status::OutOfRange("cannot truncate '", path_, "' to ", pages,
                              " pages: file has only ", page_count_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(pages * kPageSize)) != 0) {
    return Status::IOError("truncate failed on '", path_, "': ",
                           std::strerror(errno));
  }
  page_count_ = pages;
  // The new length must itself be durable: a quarantining truncation that a
  // crash rolls back would resurrect the damaged pages *after* new data has
  // been appended over the range.
  return Sync();
}

Status DiskManager::RenameTo(const std::string& new_path) {
  if (::rename(path_.c_str(), new_path.c_str()) != 0) {
    return Status::IOError("cannot rename '", path_, "' to '", new_path,
                           "': ", std::strerror(errno));
  }
  TS_RETURN_NOT_OK(FsyncParentDirectory(new_path));
  path_ = new_path;
  return Status::OK();
}

}  // namespace tempspec
