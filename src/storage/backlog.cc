#include "storage/backlog.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "storage/serde.h"

namespace tempspec {

namespace {
constexpr uint32_t kBacklogMagic = 0x544C4B42;  // "BKLT"
// v4: the header meta is [magic][version][u64 epoch]; the entry count is
// derived by scanning the CRC-guarded data pages ([u32 crc][payload]
// records); WAL records carry the epoch and an LSN equal to the global
// operation index. The epoch is bumped by compaction (ReplaceAll) so stale
// WAL records of a superseded generation are recognizable at replay. The
// WAL and the pages hold the same payload, the compact record below.
// Earlier versions (v1: trusted count header, no record CRCs; v2: no
// epoch; v3: fixed-width records and WAL headers) are rejected at open
// rather than mis-recovered.
constexpr uint32_t kBacklogVersion = 4;

// A record payload is one flags byte, then varints:
//   insert: element surrogate, object surrogate, tt_begin (zigzag), then
//           zigzag offsets: [tt - tt_begin], vt_begin - tt_begin,
//           [vt_end - vt_begin], [tt_end - tt_begin]; then the tuple;
//   delete: tt (zigzag), target surrogate.
// Bracketed fields are present only when their flag says so: tt is implied
// by tt_begin, an event has no vt_end, an open tt_end is Max(). Valid time
// is stored as its offset from transaction time because that offset is
// what the specializations bound (retroactive and predictive bounds,
// delays, degeneracy), so it stays small where the raw stamp does not.
// Offsets are taken modulo 2^64, so sentinels and extreme stamps round-trip
// exactly. When tt_begin (or a delete's tt) and every offset are whole
// seconds, all of them are stored in seconds.
enum RecordFlag : uint8_t {
  kDeleteFlag = 1 << 0,
  kIntervalFlag = 1 << 1,
  kTtStoredFlag = 1 << 2,     // tt != tt_begin
  kTtEndStoredFlag = 1 << 3,  // tt_end is closed
  kSecondsFlag = 1 << 4,      // stamps and offsets in whole seconds
};
constexpr uint8_t kKnownFlags = (1 << 5) - 1;
constexpr uint8_t kInsertOnlyFlags =
    kIntervalFlag | kTtStoredFlag | kTtEndStoredFlag;

// to - from, modulo 2^64.
int64_t Offset(TimePoint from, TimePoint to) {
  return static_cast<int64_t>(static_cast<uint64_t>(to.micros()) -
                              static_cast<uint64_t>(from.micros()));
}

TimePoint AddOffset(TimePoint from, int64_t offset) {
  return TimePoint::FromMicros(static_cast<int64_t>(
      static_cast<uint64_t>(from.micros()) + static_cast<uint64_t>(offset)));
}

void EncodeOp(BacklogOpType op, TimePoint tt, const Element& e,
              ElementSurrogate target, std::string* out) {
  uint8_t flags = 0;
  int64_t stamps[5];
  size_t n = 0;
  if (op == BacklogOpType::kLogicalDelete) {
    flags |= kDeleteFlag;
    stamps[n++] = tt.micros();
  } else {
    stamps[n++] = e.tt_begin.micros();
    if (tt != e.tt_begin) {
      flags |= kTtStoredFlag;
      stamps[n++] = Offset(e.tt_begin, tt);
    }
    stamps[n++] = Offset(e.tt_begin, e.valid.begin());
    if (e.valid.is_interval()) {
      flags |= kIntervalFlag;
      stamps[n++] = Offset(e.valid.begin(), e.valid.end());
    }
    if (!e.tt_end.IsMax()) {
      flags |= kTtEndStoredFlag;
      stamps[n++] = Offset(e.tt_begin, e.tt_end);
    }
  }
  int64_t unit = kMicrosPerSecond;
  for (size_t i = 0; i < n; ++i) {
    if (stamps[i] % unit != 0) unit = 1;
  }
  if (unit != 1) flags |= kSecondsFlag;

  Encoder enc(out);
  enc.PutU8(flags);
  if (op == BacklogOpType::kLogicalDelete) {
    enc.PutSignedVarint(stamps[0] / unit);
    enc.PutVarint(target);
    return;
  }
  enc.PutVarint(e.element_surrogate);
  enc.PutVarint(e.object_surrogate);
  for (size_t i = 0; i < n; ++i) enc.PutSignedVarint(stamps[i] / unit);
  EncodeTuple(e.attributes, &enc);
}

}  // namespace

std::string BacklogEntry::Encode() const {
  std::string out;
  EncodeOp(op, tt, element, target, &out);
  return out;
}

Result<BacklogEntry> BacklogEntry::Decode(std::string_view payload) {
  Decoder dec(payload);
  TS_ASSIGN_OR_RETURN(uint8_t flags, dec.GetU8());
  if ((flags & ~kKnownFlags) != 0 ||
      ((flags & kDeleteFlag) != 0 && (flags & kInsertOnlyFlags) != 0)) {
    return Status::Corruption("bad backlog record flags ",
                              static_cast<int>(flags));
  }
  const int64_t unit = (flags & kSecondsFlag) != 0 ? kMicrosPerSecond : 1;
  const auto stamp = [&]() -> Result<int64_t> {
    TS_ASSIGN_OR_RETURN(int64_t v, dec.GetSignedVarint());
    if (v > std::numeric_limits<int64_t>::max() / unit ||
        v < std::numeric_limits<int64_t>::min() / unit) {
      return Status::Corruption("backlog stamp overflows 64 bits");
    }
    return v * unit;
  };
  BacklogEntry entry;
  if ((flags & kDeleteFlag) != 0) {
    entry.op = BacklogOpType::kLogicalDelete;
    TS_ASSIGN_OR_RETURN(int64_t tt, stamp());
    entry.tt = TimePoint::FromMicros(tt);
    TS_ASSIGN_OR_RETURN(entry.target, dec.GetVarint());
  } else {
    Element& e = entry.element;
    TS_ASSIGN_OR_RETURN(e.element_surrogate, dec.GetVarint());
    TS_ASSIGN_OR_RETURN(e.object_surrogate, dec.GetVarint());
    TS_ASSIGN_OR_RETURN(int64_t tt_begin, stamp());
    e.tt_begin = TimePoint::FromMicros(tt_begin);
    entry.tt = e.tt_begin;
    if ((flags & kTtStoredFlag) != 0) {
      TS_ASSIGN_OR_RETURN(int64_t offset, stamp());
      entry.tt = AddOffset(e.tt_begin, offset);
    }
    TS_ASSIGN_OR_RETURN(int64_t vt_offset, stamp());
    const TimePoint vt_begin = AddOffset(e.tt_begin, vt_offset);
    if ((flags & kIntervalFlag) != 0) {
      TS_ASSIGN_OR_RETURN(int64_t length, stamp());
      e.valid = ValidTime::IntervalUnchecked(vt_begin,
                                             AddOffset(vt_begin, length));
    } else {
      e.valid = ValidTime::Event(vt_begin);
    }
    if ((flags & kTtEndStoredFlag) != 0) {
      TS_ASSIGN_OR_RETURN(int64_t offset, stamp());
      e.tt_end = AddOffset(e.tt_begin, offset);
    }
    TS_ASSIGN_OR_RETURN(e.attributes, DecodeTuple(&dec));
  }
  if (!dec.exhausted()) {
    return Status::Corruption("backlog record has ", dec.remaining(),
                              " trailing bytes");
  }
  return entry;
}

Result<std::unique_ptr<BacklogStore>> BacklogStore::Open(
    Options options, const BacklogVisitor& on_recovered) {
  auto store = std::unique_ptr<BacklogStore>(new BacklogStore());
  if (options.directory.empty()) return store;

  // Recovery is a background span: its stage timings (page scan vs WAL
  // replay) and recovered counts land in the retained-trace ring, and the
  // recovery milestones land in the flight recorder.
  TraceContext span;
  span.Begin("background.recovery");
  span.SetAttr("directory", options.directory);
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryBegin, 0, 0,
            options.directory);

  TS_ASSIGN_OR_RETURN(store->disk_,
                      DiskManager::Open(options.directory + "/backlog.pages"));
  {
    TraceContext::StageScope stage(&span, "page_scan");
    TS_RETURN_NOT_OK(store->RecoverFromPages(on_recovered));
  }

  // One pass over the WAL delivers its tail and cuts a torn end off.
  uint64_t replayed = 0;
  {
    TraceContext::StageScope stage(&span, "wal_replay");
    TS_ASSIGN_OR_RETURN(
        store->wal_,
        WriteAheadLog::Open(
            options.directory + "/backlog.wal", options.sync_mode,
            options.sync_every, store->epoch_,
            store->WalTail(&replayed, [&](std::string_view payload) -> Status {
              TS_ASSIGN_OR_RETURN(BacklogEntry entry,
                                  BacklogEntry::Decode(payload));
              return store->Deliver(std::move(entry), payload.size(),
                                    on_recovered);
            })));
  }
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryWalReplay,
            replayed, store->size_, "");
  store->wal_->SetNextLsn(store->size_);
  TS_COUNTER_INC("storage.backlog.recoveries");
  TS_COUNTER_ADD("storage.backlog.recovered_entries", store->size_);
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryEnd, store->size_,
            store->persisted_entries_, "");
  span.AddCounter("recovered_entries", store->size_);
  span.AddCounter("persisted_entries", store->persisted_entries_);
  span.AddCounter("wal_replayed", replayed);
  RetainedTraces::Instance().Record(span);
  return store;
}

void BacklogStore::Count(size_t bytes, TimePoint tt) {
  ++size_;
  encoded_bytes_ += bytes;
  last_tt_ = std::max(last_tt_, tt);
}

Status BacklogStore::Deliver(BacklogEntry&& entry, size_t bytes,
                             const BacklogVisitor& visitor) {
  Count(bytes, entry.tt);
  return visitor ? visitor(std::move(entry)) : Status::OK();
}

WriteAheadLog::RecordFn BacklogStore::WalTail(
    uint64_t* delivered, std::function<Status(std::string_view payload)> fn) {
  // The WAL holds operations appended since the last completed checkpoint —
  // plus, after a crash between checkpoint and WAL reset, stale records the
  // pages already cover. Records of older epochs (a compaction whose WAL
  // reset never became durable) are filtered inside the WAL's replay;
  // within the current epoch, LSNs are global operation indices: skip what
  // the pages hold, reject gaps (a gap means durable data was lost).
  *delivered = 0;
  return [persisted = persisted_entries_, delivered, fn = std::move(fn)](
             uint64_t lsn, std::string_view payload) -> Status {
    if (lsn < persisted) return Status::OK();  // already checkpointed
    const uint64_t expected = persisted + *delivered;
    if (lsn != expected) {
      return Status::Corruption(
          "WAL gap after a damaged page file: pages hold ", persisted,
          " operations, expected WAL lsn ", expected, ", found ", lsn);
    }
    TS_RETURN_NOT_OK(fn(payload));
    ++*delivered;
    return Status::OK();
  };
}

Status BacklogStore::WriteHeaderPage(DiskManager* disk, uint64_t epoch) {
  Page header{};
  SlottedPage sp(&header);
  sp.Init();
  std::string meta;
  Encoder enc(&meta);
  enc.PutU32(kBacklogMagic);
  enc.PutU32(kBacklogVersion);
  enc.PutU64(epoch);
  TS_RETURN_NOT_OK(sp.Insert(meta).status());
  TS_RETURN_NOT_OK(disk->AppendPage(header).status());
  return disk->Sync();
}

Status BacklogStore::RecoverFromPages(const BacklogVisitor& visitor) {
  if (disk_->page_count() == 0) {
    // Fresh file: create and flush the header page, so a process that exits
    // without ever checkpointing still leaves a well-formed file behind.
    return WriteHeaderPage(disk_.get(), epoch_);
  }

  // One page buffer serves the header and every data page in turn.
  Page page{};
  {
    TS_RETURN_NOT_OK(disk_->ReadPage(0, &page));
    SlottedPage sp(&page);
    bool header_ok = false;
    if (sp.slot_count() > 0) {
      auto meta = sp.Get(0);
      if (meta.ok()) {
        Decoder dec(meta.ValueOrDie());
        auto magic = dec.GetU32();
        if (magic.ok() && magic.ValueOrDie() == kBacklogMagic) {
          // The magic matches, so this *is* a backlog file: check the
          // version before trusting anything else. A pre-v3 file would
          // otherwise "recover" as empty — its records carry no CRC
          // prefixes, so the data-page scan and the WAL replay would both
          // stop at the first record and silently discard the data.
          auto version = dec.GetU32();
          auto epoch = dec.GetU64();
          if (version.ok() && version.ValueOrDie() != kBacklogVersion) {
            return Status::Corruption(
                "unsupported backlog format version ", version.ValueOrDie(),
                " (this build reads only v", kBacklogVersion,
                "); refusing to recover");
          }
          if (version.ok() && epoch.ok()) {
            header_ok = true;
            epoch_ = epoch.ValueOrDie();
          }
        }
      }
    }
    if (!header_ok) {
      // A single unreadable page is what a crash during store creation
      // leaves behind (the header is written exactly once, before any WAL
      // exists; compaction replaces it only via a completely-written,
      // renamed side file); anything larger is real damage.
      if (disk_->page_count() > 1) {
        return Status::Corruption("bad backlog page-file header");
      }
      TS_RETURN_NOT_OK(disk_->Truncate());
      return WriteHeaderPage(disk_.get(), epoch_);
    }
  }

  // The page file's entry count is derived, never trusted: scan data pages
  // in order, reading CRC-guarded records until the first torn, corrupt, or
  // never-completed one. Everything from the damaged page onward is
  // quarantined — truncated off the file — not merely skipped: checkpoints
  // append batches on fresh pages at the end, so a scan that only *stopped*
  // at the damage would, after a post-recovery checkpoint, never reach the
  // durable batches beyond it. The truncated records are still covered by
  // the WAL (a page can only be damaged if the checkpoint writing it never
  // completed its WAL reset).
  uint64_t keep_pages = disk_->page_count();
  for (PageId id = 1; id < disk_->page_count(); ++id) {
    // A page is delivered only once all of its records check out: a damaged
    // page's valid record prefix is dropped along with it, since the page
    // belongs to an unfinished checkpoint batch whose operations the WAL
    // replay restores.
    std::vector<std::pair<BacklogEntry, size_t>> records;
    bool damaged = false;
    TS_RETURN_NOT_OK(disk_->ReadPage(id, &page));
    SlottedPage data(&page);
    if (data.slot_count() == 0) damaged = true;  // never-completed page
    for (uint16_t slot = 0; !damaged && slot < data.slot_count(); ++slot) {
      auto record = data.Get(slot);
      if (!record.ok() || record.ValueOrDie().size() < 4) {
        damaged = true;
        break;
      }
      const std::string_view raw = record.ValueOrDie();
      Decoder dec(raw);
      const uint32_t crc = dec.GetU32().ValueOrDie();
      const std::string_view payload = raw.substr(4);
      if (Crc32(payload) != crc) {
        damaged = true;
        break;
      }
      auto entry = BacklogEntry::Decode(payload);
      if (!entry.ok()) {
        damaged = true;
        break;
      }
      records.emplace_back(std::move(entry).ValueOrDie(), payload.size());
    }
    if (damaged) {
      keep_pages = id;
      break;
    }
    for (auto& [entry, bytes] : records) {
      TS_RETURN_NOT_OK(Deliver(std::move(entry), bytes, visitor));
    }
  }
  if (keep_pages < disk_->page_count()) {
    TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryQuarantine,
              keep_pages, disk_->page_count() - keep_pages, "");
    TS_RETURN_NOT_OK(disk_->TruncateToPages(keep_pages));
  }
  persisted_entries_ = size_;
  TS_FLIGHT(FlightCategory::kRecovery, FlightCode::kRecoveryPages, size_,
            keep_pages, "");
  return Status::OK();
}

Status BacklogStore::AppendInsert(const Element& e) {
  payload_.clear();
  EncodeOp(BacklogOpType::kInsert, e.tt_begin, e, kInvalidElementSurrogate,
           &payload_);
  return AppendPayload(payload_, e.tt_begin);
}

Status BacklogStore::AppendDelete(TimePoint tt, ElementSurrogate target) {
  payload_.clear();
  EncodeOp(BacklogOpType::kLogicalDelete, tt, Element(), target, &payload_);
  return AppendPayload(payload_, tt);
}

Status BacklogStore::AppendPayload(std::string_view payload, TimePoint tt) {
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  if (wal_) {
    auto appended = wal_->Append(payload);
    if (!appended.ok()) {
      // The WAL tail may be torn: a later successful append would land
      // beyond the tear and be unreachable at replay. Fail stop.
      io_failed_ = true;
      return appended.status();
    }
  }
  Count(payload.size(), tt);
  TS_COUNTER_INC("storage.backlog.appends");
  return Status::OK();
}

std::vector<Element> MaterializeState(const std::vector<BacklogEntry>& ops,
                                      TimePoint tt) {
  std::unordered_map<ElementSurrogate, Element> alive;
  for (const BacklogEntry& e : ops) {
    if (e.tt > tt) break;  // operations are in transaction-time order
    if (e.op == BacklogOpType::kInsert) {
      alive.emplace(e.element.element_surrogate, e.element);
    } else {
      alive.erase(e.target);
    }
  }
  std::vector<Element> out;
  out.reserve(alive.size());
  for (auto& [id, element] : alive) out.push_back(std::move(element));
  return out;
}

std::vector<Element> ReconstructElements(const std::vector<BacklogEntry>& ops) {
  std::vector<Element> out;
  std::unordered_map<ElementSurrogate, size_t> index;
  for (const BacklogEntry& e : ops) {
    if (e.op == BacklogOpType::kInsert) {
      index[e.element.element_surrogate] = out.size();
      out.push_back(e.element);
    } else {
      auto it = index.find(e.target);
      if (it != index.end()) out[it->second].tt_end = e.tt;
    }
  }
  return out;
}

std::vector<BacklogEntry> OperationsOf(std::span<const Element> elements) {
  std::vector<BacklogEntry> ops;
  ops.reserve(elements.size());
  for (const Element& e : elements) {
    BacklogEntry& ins = ops.emplace_back();
    ins.tt = e.tt_begin;
    ins.element = e;
    ins.element.tt_end = TimePoint::Max();  // the delete is its own operation
    if (e.tt_end.IsMax()) continue;
    BacklogEntry& del = ops.emplace_back();
    del.op = BacklogOpType::kLogicalDelete;
    del.tt = e.tt_end;
    del.target = e.element_surrogate;
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const BacklogEntry& a, const BacklogEntry& b) {
                     if (a.tt != b.tt) return a.tt < b.tt;
                     return a.op == BacklogOpType::kLogicalDelete &&
                            b.op == BacklogOpType::kInsert;
                   });
  return ops;
}

Status BacklogStore::PersistPayloads(DiskManager* disk,
                                     const std::vector<std::string>& payloads) {
  // The batch starts on a fresh page and every page is appended whole: the
  // tail page of the previous checkpoint holds records the WAL no longer
  // covers, and a torn rewrite of it would destroy durable data.
  Page page{};
  SlottedPage sp(&page);
  bool filling = false;
  std::string record;
  for (const std::string& payload : payloads) {
    record.clear();
    Encoder enc(&record);
    enc.PutU32(Crc32(payload));
    record += payload;
    if (filling && !sp.Fits(record.size())) {
      TS_RETURN_NOT_OK(disk->AppendPage(page).status());
      filling = false;
    }
    if (!filling) {
      sp.Init();
      filling = true;
    }
    TS_RETURN_NOT_OK(sp.Insert(record).status());
  }
  if (filling) TS_RETURN_NOT_OK(disk->AppendPage(page).status());
  return disk->Sync();
}

Status BacklogStore::CheckpointInternal(TraceContext* trace) {
  // Order matters: an operation must never exist only in a reset WAL.
  // 1. Read the batch back from the WAL, through the recovery filter. A
  //    short read (a WAL damaged or cut behind the store's back) must not
  //    become a short batch followed by a WAL reset: that would drop the
  //    missing operations for good.
  const uint64_t pending = size_ - persisted_entries_;
  std::vector<std::string> payloads;
  payloads.reserve(pending);
  {
    TraceContext::StageScope stage(trace, "wal_read");
    uint64_t read = 0;
    TS_RETURN_NOT_OK(wal_->Replay(WalTail(&read, [&](std::string_view payload) {
                                    payloads.emplace_back(payload);
                                    return Status::OK();
                                  }))
                         .status());
  }
  if (payloads.size() != pending) {
    return Status::Corruption("checkpoint read ", payloads.size(), " of ",
                              pending, " pending operations back from the WAL");
  }
  // 2. Persist the batch onto fresh pages and make them durable.
  {
    TraceContext::StageScope stage(trace, "persist");
    TS_RETURN_NOT_OK(PersistPayloads(disk_.get(), payloads));
  }
  // 3. Only now discard the WAL (truncate + fsync file and directory).
  {
    TraceContext::StageScope stage(trace, "wal_reset");
    TS_RETURN_NOT_OK(wal_->Reset());
  }
  wal_->SetNextLsn(size_);
  persisted_entries_ = size_;
  return Status::OK();
}

Status BacklogStore::Checkpoint() {
  if (!wal_) return Status::OK();
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  TraceContext span;
  span.Begin("background.checkpoint");
  const uint64_t pending = size_ - persisted_entries_;
  TS_FLIGHT(FlightCategory::kCheckpoint, FlightCode::kCheckpointBegin, pending,
            size_, "");
  Status st = CheckpointInternal(&span);
  // A half-completed checkpoint left pages the scan-based recovery would
  // double-count if we blindly re-ran it, and a short read-back means the
  // WAL lost acknowledged operations; fail stop until reopened.
  if (!st.ok()) io_failed_ = true;
  if (st.ok()) {
    TS_COUNTER_INC("storage.backlog.checkpoints");
    TS_FLIGHT(FlightCategory::kCheckpoint, FlightCode::kCheckpointEnd,
              persisted_entries_, 0, "");
  }
  span.AddCounter("pending_entries", pending);
  span.AddCounter("persisted_entries", persisted_entries_);
  span.SetAttr("status", st.ok() ? "ok" : "error");
  RetainedTraces::Instance().Record(span);
  return st;
}

Status BacklogStore::ReplaceAll(const std::vector<BacklogEntry>& entries,
                                TraceContext* trace) {
  if (io_failed_) {
    return Status::IOError(
        "backlog store is read-only after an IO failure; reopen to recover");
  }
  std::vector<std::string> payloads;
  payloads.reserve(entries.size());
  size_t bytes = 0;
  TimePoint last_tt = TimePoint::Min();
  for (const BacklogEntry& e : entries) {
    bytes += payloads.emplace_back(e.Encode()).size();
    last_tt = std::max(last_tt, e.tt);
  }
  const auto adopt_counters = [&] {
    size_ = entries.size();
    encoded_bytes_ = bytes;
    last_tt_ = last_tt;
    persisted_entries_ = wal_ ? size_ : 0;
  };
  if (!wal_) {
    adopt_counters();
    return Status::OK();
  }
  TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionBegin, size_,
            entries.size(), "");

  // Build the compacted generation in a side file and adopt it with an
  // atomic rename: a crash at any point leaves either the old complete
  // state or the new one on disk, never a truncated hybrid. The new header
  // carries a bumped epoch, and WAL records are epoch-stamped, so the stale
  // records of the old generation are discarded at replay even when the
  // Reset below never becomes durable — their old, higher LSNs could
  // otherwise alias the compacted count (bogus replay) or trip the
  // recovery gap check.
  const uint64_t new_epoch = epoch_ + 1;
  Status st = [&]() -> Status {
    std::unique_ptr<DiskManager> side;
    {
      TraceContext::StageScope stage(trace, "side_build");
      TS_ASSIGN_OR_RETURN(side, DiskManager::Open(disk_->path() + ".compact"));
      if (side->page_count() > 0) {
        // Leftover from a compaction that crashed before its rename.
        TS_RETURN_NOT_OK(side->Truncate());
      }
      TS_RETURN_NOT_OK(WriteHeaderPage(side.get(), new_epoch));
      TS_RETURN_NOT_OK(PersistPayloads(side.get(), payloads));
    }
    {
      TraceContext::StageScope stage(trace, "rename");
      TS_RETURN_NOT_OK(side->RenameTo(disk_->path()));
    }
    TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionRename,
              new_epoch, 0, "");
    // The rename is the commit point: adopt the new generation and discard
    // the WAL.
    disk_ = std::move(side);
    epoch_ = new_epoch;
    wal_->SetEpoch(new_epoch);
    adopt_counters();
    {
      TraceContext::StageScope stage(trace, "wal_reset");
      TS_RETURN_NOT_OK(wal_->Reset());
    }
    wal_->SetNextLsn(size_);
    return Status::OK();
  }();
  if (!st.ok()) io_failed_ = true;
  if (st.ok()) {
    TS_COUNTER_INC("storage.backlog.compactions");
    TS_FLIGHT(FlightCategory::kCompaction, FlightCode::kCompactionEnd, size_,
              epoch_, "");
  }
  return st;
}

}  // namespace tempspec
