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

/// \brief Owns one append-only data file as an array of pages: a page is
/// written once, when it is appended, and never rewritten in place.
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

  /// \brief Writes `page` past the last page; returns its id. Not durable
  /// until Sync().
  Result<PageId> AppendPage(const Page& page);

  Status ReadPage(PageId id, Page* out) const;

  /// \brief fsync.
  Status Sync();

  /// \brief Discards all pages.
  Status Truncate() { return TruncateToPages(0); }

  /// \brief Shrinks the file to its first `pages` pages and fsyncs, so the
  /// cut cannot be forgotten by a later crash. Recovery uses this to
  /// quarantine a damaged page suffix: once truncated, a later append can
  /// never land beyond still-damaged pages.
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

  Status WritePageOnce(PageId id, const Page& page);
  Status ReadPageOnce(PageId id, Page* out) const;
  Status SyncOnce();

  std::string path_;
  int fd_;
  uint64_t page_count_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_STORAGE_DISK_MANAGER_H_
