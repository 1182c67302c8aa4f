// Deterministic crash-recovery harness for the storage stack.
//
// A crash trial: arm a failpoint (util/failpoint.h) so that a chosen fault
// fires at the trigger'th IO operation, run a seeded workload against a
// durable store until an operation fails ("the crash"), tear the store down
// while the registry is still in the crashed state (the WAL then cuts its
// unsynced tail at a seeded point, modeling page-cache loss), disarm, and
// reopen. Recovery must always succeed, and the recovered operation log must
// be a *prefix* of the acknowledged shadow log, byte-identical entry by
// entry, and at least as long as the durable floor (the last completed
// checkpoint); a crash inside backlog compaction (ReplaceAll) must resolve
// to exactly the old or exactly the new generation. Every trial then keeps
// going: more appends, another checkpoint, a final reopen — so recovery
// states that only break on the *next* checkpoint (e.g. a torn page left in
// the file) are caught too. Sweeping the trigger across every operation
// count turns this into an exhaustive, reproducible crash-point exploration.
//
// Everything here is seeded: same strategy + trigger + seed => same faults,
// same torn bytes, same recovery.
#ifndef TEMPSPEC_TESTS_TESTING_CRASH_H_
#define TEMPSPEC_TESTS_TESTING_CRASH_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/flight_recorder.h"
#include "storage/backlog.h"
#include "testing.h"
#include "testing_json.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace tempspec {
namespace testing {

class CrashTempDir {
 public:
  CrashTempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("tempspec_crash_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~CrashTempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// \brief Seeded backlog workload: ~75% inserts (with variable-length
/// payloads, so byte-identity checks cover the encoder), ~25% deletes of a
/// random live element.
inline std::vector<BacklogEntry> MakeCrashWorkload(uint64_t seed, size_t num_ops,
                                                   size_t payload_bytes = 24) {
  Random rng(seed);
  std::vector<BacklogEntry> ops;
  ops.reserve(num_ops);
  std::vector<ElementSurrogate> live;
  ElementSurrogate next = 1;
  for (size_t i = 0; i < num_ops; ++i) {
    const int64_t tt = static_cast<int64_t>(10 * (i + 1));
    BacklogEntry e;
    e.tt = T(tt);
    if (!live.empty() && rng.OneIn(0.25)) {
      const size_t victim = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      e.op = BacklogOpType::kLogicalDelete;
      e.target = live[victim];
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      e.op = BacklogOpType::kInsert;
      e.element = MakeEventElement(T(tt), T(tt - 3), next, next % 5 + 1);
      e.element.attributes =
          Tuple{static_cast<int64_t>(i),
                rng.NextString(static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(payload_bytes))))};
      live.push_back(next);
      ++next;
    }
    ops.push_back(std::move(e));
  }
  return ops;
}

/// \brief Appends one operation: an insert at its element's tt_begin (the
/// workloads here stamp both alike), or a delete at its tt.
inline Status AppendOp(BacklogStore* store, const BacklogEntry& op) {
  return op.op == BacklogOpType::kInsert ? store->AppendInsert(op.element)
                                         : store->AppendDelete(op.tt, op.target);
}

/// \brief Opens a store and collects the operations its recovery streams,
/// in order (the store itself keeps none of them).
inline Result<std::unique_ptr<BacklogStore>> OpenCollecting(
    const BacklogStore::Options& options, std::vector<BacklogEntry>* recovered) {
  recovered->clear();
  return BacklogStore::Open(options, [recovered](BacklogEntry&& entry) {
    recovered->push_back(std::move(entry));
    return Status::OK();
  });
}

/// \brief Alive elements after applying the first `prefix` ops, sorted by
/// surrogate (the shadow counterpart of MaterializeState at
/// TimePoint::Max()).
inline std::vector<Element> MaterializeShadow(const std::vector<BacklogEntry>& ops,
                                              size_t prefix) {
  std::unordered_map<ElementSurrogate, Element> alive;
  for (size_t i = 0; i < prefix && i < ops.size(); ++i) {
    const BacklogEntry& e = ops[i];
    if (e.op == BacklogOpType::kInsert) {
      alive.emplace(e.element.element_surrogate, e.element);
    } else {
      alive.erase(e.target);
    }
  }
  std::vector<Element> out;
  out.reserve(alive.size());
  for (auto& [id, element] : alive) out.push_back(std::move(element));
  std::sort(out.begin(), out.end(), [](const Element& a, const Element& b) {
    return a.element_surrogate < b.element_surrogate;
  });
  return out;
}

/// \brief What vacuuming's backlog compaction boils a history down to: the
/// insert operations of still-alive elements, in original order (deletes and
/// dead elements dropped). Used as the shadow of ReplaceAll in compaction
/// crash trials.
inline std::vector<BacklogEntry> CompactHistory(
    const std::vector<BacklogEntry>& history) {
  std::unordered_set<ElementSurrogate> dead;
  for (const BacklogEntry& e : history) {
    if (e.op == BacklogOpType::kLogicalDelete) dead.insert(e.target);
  }
  std::vector<BacklogEntry> out;
  for (const BacklogEntry& e : history) {
    if (e.op == BacklogOpType::kInsert &&
        dead.count(e.element.element_surrogate) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

inline bool SameStoredElement(const Element& a, const Element& b) {
  return a.element_surrogate == b.element_surrogate &&
         a.object_surrogate == b.object_surrogate && a.tt_begin == b.tt_begin &&
         a.tt_end == b.tt_end && a.valid == b.valid &&
         a.attributes == b.attributes;
}

/// \brief Parses a flight-recorder JSONL dump and asserts the black-box
/// contract: every line is a schema-valid event, seqs strictly increase,
/// this trial's injected fault is on the record, and nothing but fault-plane
/// events follows the crash latch (post-latch, every storage IO fails before
/// its success event is recorded). `flight_start` is the recorder head at
/// trial start, so events of earlier trials still in the ring are ignored
/// where identity matters.
inline void ValidateFlightDump(const std::string& path, const char* site,
                               FaultKind kind, uint64_t flight_start) {
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot open flight dump '" << path << "'";
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = JsonParser::Parse(line);
    ASSERT_TRUE(parsed.ok()) << "flight dump line is not valid JSON ("
                             << parsed.status().ToString() << "): " << line;
    events.push_back(std::move(parsed).ValueOrDie());
  }
  ASSERT_FALSE(events.empty()) << "flight dump is empty after a crash";

  long long prev_seq = -1;
  for (const JsonValue& e : events) {
    ASSERT_TRUE(e.is_object()) << "flight dump line is not an object";
    for (const char* key : {"seq", "nanos", "tid", "arg0", "arg1"}) {
      ASSERT_TRUE(e.has(key) && e.at(key).type == JsonValue::Type::kNumber)
          << "flight event lacks numeric '" << key << "'";
    }
    for (const char* key : {"category", "code", "detail"}) {
      ASSERT_TRUE(e.has(key) && e.at(key).type == JsonValue::Type::kString)
          << "flight event lacks string '" << key << "'";
    }
    const long long seq = std::stoll(e.at("seq").number);
    ASSERT_GT(seq, prev_seq) << "flight dump seqs are not strictly increasing";
    prev_seq = seq;
  }

  // This trial's injected fault must be on the record: site in the detail,
  // fault kind in arg0, and a sequence number from this trial.
  bool saw_inject = false;
  for (const JsonValue& e : events) {
    if (e.at("code").string == "fault.inject" &&
        e.at("detail").string == site &&
        std::stoll(e.at("arg0").number) == static_cast<long long>(kind) &&
        std::stoull(e.at("seq").number) >= flight_start) {
      saw_inject = true;
      break;
    }
  }
  ASSERT_TRUE(saw_inject) << "no fault.inject event for site '" << site
                          << "' kind " << FaultKindToString(kind)
                          << " in the flight dump";

  // Latching faults leave a fault.crash_latch milestone; everything after
  // this trial's latch must be fault-plane (the crashed registry fails
  // every storage IO before its success event records). Latches of earlier
  // trials — legitimately followed by their recovery's storage events —
  // are excluded by the flight_start scope.
  size_t last_latch = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("code").string == "fault.crash_latch" &&
        std::stoull(events[i].at("seq").number) >= flight_start) {
      last_latch = i;
    }
  }
  const bool latching = kind == FaultKind::kShortWrite ||
                        kind == FaultKind::kCorruptBit ||
                        kind == FaultKind::kCrash;
  if (latching) {
    ASSERT_LT(last_latch, events.size())
        << "latching fault left no fault.crash_latch event in this trial";
  }
  for (size_t i = last_latch == events.size() ? events.size() : last_latch + 1;
       i < events.size(); ++i) {
    ASSERT_EQ(events[i].at("category").string, "fault")
        << "storage event recorded after the crash latch (dump index " << i
        << ", code " << events[i].at("code").string << ")";
  }
}

/// \brief One crash-injection strategy: which site is armed with which
/// fault, under which durability mode, and what the recovery contract is.
struct CrashStrategy {
  const char* name;
  const char* site;
  FaultKind kind;
  SyncMode sync_mode = SyncMode::kEveryN;
  uint32_t sync_every = 8;
  uint32_t transient_ops = 0;      // kTransientError only
  bool drop_wal_sync = false;      // additionally arm wal.sync: drop from op 0
  bool drop_wal_reset = false;     // additionally arm wal.reset: drop from op 0
  /// ReplaceAll (backlog compaction) after every N appends; 0 = never.
  size_t compact_every = 0;
  /// Recovered must equal ALL acknowledged ops (fsync-per-append, no loss
  /// model active). Otherwise only prefix-consistency + the checkpoint
  /// floor are guaranteed.
  bool lossless = false;
  size_t payload_bytes = 24;
};

struct TrialOutcome {
  bool crashed = false;
  size_t acked = 0;      // ops acknowledged before the crash
  size_t floor = 0;      // ops covered by the last completed checkpoint
  size_t recovered = 0;  // ops present after recovery
};

/// \brief Runs one seeded crash trial; gtest-fatal on any violated recovery
/// invariant. Call under ASSERT_NO_FATAL_FAILURE with a SCOPED_TRACE naming
/// the trigger.
inline void RunBacklogCrashTrial(const CrashStrategy& strategy, uint64_t trigger,
                                 uint64_t seed, size_t num_ops,
                                 size_t checkpoint_every, TrialOutcome* out) {
  ASSERT_TRUE(FailpointsCompiledIn())
      << "TEMPSPEC_FAILPOINTS is compiled out: this build cannot inject "
         "faults, so the crash suite would pass vacuously. Reconfigure with "
         "-DTEMPSPEC_FAILPOINTS=ON.";
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.DisarmAll();
  // Recorder head at trial start: events below this seq belong to earlier
  // trials still sitting in the ring.
  const uint64_t flight_start = FlightRecorder::Instance().head();

  CrashTempDir dir;
  const std::vector<BacklogEntry> ops =
      MakeCrashWorkload(seed, num_ops, strategy.payload_bytes);

  BacklogStore::Options options;
  options.directory = dir.path();
  options.sync_mode = strategy.sync_mode;
  options.sync_every = strategy.sync_every;

  FaultSpec spec;
  spec.kind = strategy.kind;
  spec.trigger_at = trigger;
  spec.transient_ops = strategy.transient_ops == 0 ? 1 : strategy.transient_ops;
  spec.seed = seed ^ (trigger * 0x9e3779b97f4a7c15ull);
  registry.Arm(strategy.site, spec);
  if (strategy.drop_wal_sync) {
    registry.Arm("wal.sync", FaultSpec{FaultKind::kDropSync, 0, 1, seed});
  }
  if (strategy.drop_wal_reset) {
    registry.Arm("wal.reset", FaultSpec{FaultKind::kDropSync, 0, 1, seed});
  }

  *out = TrialOutcome{};
  // The shadow is the acknowledged history of the *current generation*; a
  // successful compaction replaces it wholesale. prev_shadow keeps the
  // pre-compaction generation for trials that crash inside ReplaceAll,
  // where the atomic rename makes either generation a legal outcome.
  std::vector<BacklogEntry> shadow;
  std::vector<BacklogEntry> prev_shadow;
  size_t prev_floor = 0;
  bool compaction_crashed = false;
  {
    auto opened = BacklogStore::Open(options);
    if (!opened.ok()) {
      out->crashed = true;  // fault fired while creating the store
    } else {
      std::unique_ptr<BacklogStore> store = std::move(opened).ValueOrDie();
      size_t appends = 0;
      for (const BacklogEntry& op : ops) {
        const Status st = AppendOp(store.get(), op);
        if (!st.ok()) {
          out->crashed = true;
          break;
        }
        shadow.push_back(op);
        ++appends;
        out->acked = shadow.size();
        if (appends % checkpoint_every == 0) {
          const Status cp = store->Checkpoint();
          if (!cp.ok()) {
            out->crashed = true;
            break;
          }
          out->floor = shadow.size();
        }
        if (strategy.compact_every != 0 &&
            appends % strategy.compact_every == 0) {
          std::vector<BacklogEntry> compacted = CompactHistory(shadow);
          prev_shadow = std::move(shadow);
          prev_floor = out->floor;
          const Status rp = store->ReplaceAll(compacted);
          shadow = std::move(compacted);
          out->acked = shadow.size();
          out->floor = shadow.size();
          if (!rp.ok()) {
            out->crashed = true;
            compaction_crashed = true;
            break;
          }
        }
      }
      // Teardown happens while the registry is still crashed: the WAL
      // destructor applies the seeded machine-crash tail cut.
    }
  }
  registry.DisarmAll();

  // Black-box check: serialize the flight recorder exactly as the fatal-
  // signal handler would, and validate the dump *before* recovery runs (its
  // recovery events would otherwise append beyond the crash tail). Every
  // seeded crash point must yield a schema-valid dump whose last events are
  // consistent with the injected fault.
  if (out->crashed && FlightRecorderCompiledIn()) {
    const std::string dump_path = dir.path() + "/flight.jsonl";
    ASSERT_OK(FlightRecorder::Instance().DumpToFile(dump_path));
    ASSERT_NO_FATAL_FAILURE(
        ValidateFlightDump(dump_path, strategy.site, strategy.kind, flight_start));
  }

  // Recovery must succeed with no faults armed, whatever the crash left.
  std::vector<BacklogEntry> recovered;
  auto reopened = OpenCollecting(options, &recovered);
  ASSERT_TRUE(reopened.ok())
      << "recovery failed after '" << strategy.name << "' crash at trigger "
      << trigger << ": " << reopened.status().ToString();
  std::unique_ptr<BacklogStore> store = std::move(reopened).ValueOrDie();
  out->recovered = recovered.size();
  ASSERT_EQ(store->size(), recovered.size())
      << strategy.name << ": the store's count disagrees with its recovery";

  // Prefix-consistency: never more than acknowledged, never less than the
  // durable floor, byte-identical entry by entry. A crash *inside*
  // ReplaceAll resolves to whichever side of its atomic rename the crash
  // landed on: exactly the compacted generation, or a prefix of the old one
  // (whose unsynced WAL tail the crash may still have cut).
  const std::vector<BacklogEntry>* against = &shadow;
  size_t floor = out->floor;
  if (compaction_crashed) {
    bool adopted_new = recovered.size() == shadow.size();
    for (size_t i = 0; adopted_new && i < recovered.size(); ++i) {
      adopted_new = recovered[i].Encode() == shadow[i].Encode();
    }
    if (adopted_new) {
      ASSERT_EQ(recovered.size(), shadow.size());
    } else {
      against = &prev_shadow;
      floor = prev_floor;
    }
  }
  ASSERT_LE(recovered.size(), against->size())
      << strategy.name << ": phantom operations after recovery";
  ASSERT_GE(recovered.size(), floor)
      << strategy.name << ": checkpointed operations lost";
  if (strategy.lossless && out->crashed) {
    ASSERT_EQ(recovered.size(), out->acked)
        << strategy.name << ": acknowledged fsync'd operations lost";
  }
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i].Encode(), (*against)[i].Encode())
        << strategy.name << ": recovered op " << i << " differs";
  }

  // Recovered state must match the shadow model applied to the same prefix.
  std::vector<Element> actual = MaterializeState(recovered, TimePoint::Max());
  std::sort(actual.begin(), actual.end(), [](const Element& a, const Element& b) {
    return a.element_surrogate < b.element_surrogate;
  });
  const std::vector<Element> expected =
      MaterializeShadow(*against, recovered.size());
  ASSERT_EQ(actual.size(), expected.size()) << strategy.name;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameStoredElement(actual[i], expected[i]))
        << strategy.name << ": alive element " << i << " differs";
  }

  // Recovery is idempotent: reopening again yields the same history.
  const size_t first_count = recovered.size();
  store.reset();
  std::vector<BacklogEntry> recovered_again;
  auto again = OpenCollecting(options, &recovered_again);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  std::unique_ptr<BacklogStore> resumed = std::move(again).ValueOrDie();
  ASSERT_EQ(recovered_again.size(), first_count)
      << strategy.name << ": recovery is not idempotent";
  for (size_t i = 0; i < first_count; ++i) {
    ASSERT_EQ(recovered_again[i].Encode(), recovered[i].Encode())
        << strategy.name << ": second recovery differs at op " << i;
  }

  // Life goes on after recovery: append a continuation workload, checkpoint
  // it, and reopen once more. This is the regression for quarantined torn
  // pages — the post-recovery checkpoint appends its batch on fresh pages
  // *after* whatever the crash damaged, and a recovery scan that had merely
  // stopped at the damage (instead of truncating it off the file) would
  // never reach that durable batch here, silently dropping it. It is also
  // the regression for a torn WAL tail left in place at reopen: the
  // continuation's appends would land beyond it, and the checkpoint, which
  // reads its batch back from the WAL, would come up short.
  constexpr size_t kContinuationOps = 12;
  const std::vector<BacklogEntry> extra = MakeCrashWorkload(
      seed ^ 0x5ca1ab1eull, kContinuationOps, strategy.payload_bytes);
  for (const BacklogEntry& op : extra) {
    ASSERT_OK(AppendOp(resumed.get(), op));
  }
  ASSERT_OK(resumed->Checkpoint());
  resumed.reset();
  std::vector<BacklogEntry> final_entries;
  auto final_open = OpenCollecting(options, &final_entries);
  ASSERT_TRUE(final_open.ok())
      << strategy.name << ": reopen after post-recovery checkpoint failed: "
      << final_open.status().ToString();
  ASSERT_EQ(final_entries.size(), first_count + extra.size())
      << strategy.name << ": operations appended after recovery were lost";
  for (size_t i = 0; i < final_entries.size(); ++i) {
    const std::string want = i < first_count
                                 ? (*against)[i].Encode()
                                 : extra[i - first_count].Encode();
    ASSERT_EQ(final_entries[i].Encode(), want)
        << strategy.name << ": post-continuation op " << i << " differs";
  }
}

/// \brief Prints the registry's fault counters. Crash tests call this and
/// assert on the totals, so a build whose failpoints never fire fails
/// loudly instead of passing vacuously.
inline FaultCounters PrintFaultSummary(const char* label) {
  const FaultCounters c = FailpointRegistry::Instance().counters();
  std::cout << "[fault-injection] " << label << ": evaluated=" << c.evaluated
            << " injected=" << c.injected << " short_writes=" << c.short_writes
            << " corrupt=" << c.corrupt_writes
            << " dropped_syncs=" << c.dropped_syncs
            << " transient=" << c.transient_errors << " crashes=" << c.crashes
            << std::endl;
  return c;
}

}  // namespace testing
}  // namespace tempspec

#endif  // TEMPSPEC_TESTS_TESTING_CRASH_H_
