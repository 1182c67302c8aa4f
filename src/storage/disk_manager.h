// File-backed page storage.
#ifndef TEMPSPEC_STORAGE_DISK_MANAGER_H_
#define TEMPSPEC_STORAGE_DISK_MANAGER_H_

#include <memory>
#include <string>

#include "storage/page.h"
#include "util/result.h"

namespace tempspec {

/// \brief fsyncs the file or directory at `path`.
Status FsyncPath(const std::string& path);

/// \brief fsyncs the directory containing `path`, making renames and
/// truncations of directory entries durable.
Status FsyncParentDirectory(const std::string& path);

/// \brief Owns one data file as an array of pages.
///
/// Crash tolerance: Open() truncates a trailing partial page (the signature
/// of a crash mid-extension) instead of rejecting the file, and reads,
/// writes, and syncs retry transient IO errors with bounded backoff. In
/// failpoint builds (util/failpoint.h) every IO goes through the
/// "disk.read_page" / "disk.write_page" / "disk.sync" sites so tests can
/// inject torn writes, bit flips, and EIO deterministically.
class DiskManager {
 public:
  /// \brief Opens (creating if absent) the file at `path`.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);

  ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// \brief Number of pages currently in the file.
  uint64_t page_count() const { return page_count_; }

  /// \brief Extends the file by one zeroed page; returns its id.
  Result<PageId> AllocatePage();

  Status ReadPage(PageId id, Page* out) const;
  Status WritePage(PageId id, const Page& page);

  /// \brief fsync.
  Status Sync();

  /// \brief Discards all pages. Any cached frames above this manager must
  /// be dropped by the caller first.
  Status Truncate() { return TruncateToPages(0); }

  /// \brief Shrinks the file to its first `pages` pages and fsyncs, so the
  /// cut cannot be forgotten by a later crash. Recovery uses this to
  /// quarantine a damaged page suffix: once truncated, a later append can
  /// never land beyond still-damaged pages. Cached frames for the dropped
  /// range must be discarded by the caller.
  Status TruncateToPages(uint64_t pages);

  /// \brief Atomically renames the backing file to `new_path` (same
  /// directory) and fsyncs the directory entry. The open descriptor keeps
  /// following the inode. Backlog compaction builds the next generation in
  /// a side file and adopts it with this.
  Status RenameTo(const std::string& new_path);

  const std::string& path() const { return path_; }

 private:
  DiskManager(std::string path, int fd, uint64_t page_count)
      : path_(std::move(path)), fd_(fd), page_count_(page_count) {}

  Status WritePageInternal(PageId id, const Page& page);
  Status WritePageOnce(PageId id, const Page& page);
  Status ReadPageOnce(PageId id, Page* out) const;
  Status SyncOnce();

  std::string path_;
  int fd_;
  uint64_t page_count_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_DISK_MANAGER_H_
