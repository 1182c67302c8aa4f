// Seeded statement generator for the repository benchmark.
//
// Every relation is written by exactly one client connection, so the
// generator can mirror the server's per-relation logical clock exactly: the
// k-th mutation of a relation (k from 0) is stamped at the epoch plus k
// seconds. Valid times are derived from that predicted stamp and kept well
// inside each relation's declared band, so a healthy run draws no
// constraint rejections.
//
// A stream depends only on (seed, workload, stream index): the same seed
// gives a byte-identical stream, whatever the timing of the run. The op mix
// is the same for every seed; the seed draws instants and values.
#ifndef TEMPSPEC_PERFBENCH_GEN_H_
#define TEMPSPEC_PERFBENCH_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"
#include "workload/workloads.h"

namespace perfbench {

enum class Workload { kIngest, kHistoryScan, kChatter };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

enum class OpKind { kInsert, kTimeslice, kAsOf, kRollback, kRange, kWideRange };
constexpr int kOpKinds = 6;
const char* OpKindName(OpKind kind);
inline bool IsWrite(OpKind kind) { return kind == OpKind::kInsert; }

/// \brief One generated operation. Inserts keep their structured form so
/// the traced run can replay them through TemporalRelation::Insert.
struct Op {
  OpKind kind = OpKind::kInsert;
  int relation = 0;  // index into WorkloadSpec::relations
  std::string statement;
  // Inserts only.
  uint64_t object = 0;
  int64_t vt_begin_us = 0;
  int64_t vt_end_us = 0;  // == vt_begin_us for event relations
  double amount = 0;
  std::string label;  // the assignments relation's STRING attribute
  // Reads only: the instant(s) of the read, for executor replay.
  int64_t at_us = 0;
  int64_t to_us = 0;
};

struct WorkloadSpec {
  Workload workload = Workload::kIngest;
  std::vector<tempspec::Scenario> relations;
  std::vector<uint64_t> preload;  // elements per relation
  /// Relations owned by each client stream (a relation has one owner).
  std::vector<std::vector<int>> owners;
  /// Share of the offered rate each stream carries.
  std::vector<double> stream_share;
  double write_share = 0;
  /// Read-kind weights, indexed by OpKind (kInsert unused).
  double read_weight[kOpKinds] = {};
};

/// \brief The workload's relations, preload sizes, ownership and mix for
/// `streams` client connections (1..3).
WorkloadSpec MakeSpec(Workload workload, int streams);

/// \brief Per-relation generator: clock mirror plus valid-time state.
class RelationGen {
 public:
  RelationGen(tempspec::Scenario scenario, uint64_t seed);

  /// \brief Next conforming INSERT, predicting the stamp from the clock
  /// mirror. The caller sends inserts of one relation in order.
  Op NextInsert();

  /// \brief Freezes the read instants after preload: a fixed set of past
  /// valid times (sampled from the preload), past transaction times, and a
  /// range width that selects about ten rows.
  void FreezePastSets();

  /// \brief A read of `kind`; `recent` probes a just-inserted instant
  /// instead of the Zipf-skewed past set.
  Op NextRead(OpKind kind, bool recent);

  /// \brief Whether reads of `kind` stay small on this relation.
  bool SupportsRead(OpKind kind) const;

 private:
  int64_t PastVt();
  int64_t PastTt();
  std::string Fmt(int64_t micros) const;

  tempspec::Scenario scenario_;
  std::string name_;
  bool interval_ = false;
  tempspec::Random rng_;
  uint64_t ticks_ = 0;
  // Valid-time state.
  uint64_t next_employee_ = 0;
  std::vector<uint64_t> employee_weeks_;
  uint64_t strata_layer_ = 0;
  std::vector<int64_t> preload_vts_;
  std::vector<int64_t> recent_vts_;  // ring of the last inserts' instants
  size_t recent_next_ = 0;
  // Frozen read sets.
  std::vector<int64_t> past_vts_;
  std::vector<int64_t> past_tts_;
  int64_t range_width_us_ = 0;
  int64_t vt_lo_ = 0;
  int64_t vt_hi_ = 0;
};

/// \brief One client connection's stream: its owned relations' generators
/// plus the op-mix state.
class StreamGen {
 public:
  StreamGen(const WorkloadSpec& spec, int stream, uint64_t seed);

  /// \brief The preload inserts of every owned relation, interleaved
  /// round-robin. Freezes the read sets afterwards.
  std::vector<Op> Preload();

  /// \brief Next measured-phase op.
  Op Next();

  const std::vector<int>& owned() const { return owned_; }
  RelationGen& relation(int index);

 private:
  const WorkloadSpec& spec_;
  std::vector<int> owned_;
  std::vector<std::unique_ptr<RelationGen>> gens_;  // parallel to owned_
  std::vector<int> readable_[kOpKinds];  // owned positions per read kind
  // Stratified mix state (see Next).
  double write_credit_ = 0;
  double read_credit_[kOpKinds] = {};
  size_t next_writer_ = 0;
  size_t next_reader_[kOpKinds] = {};
};

}  // namespace perfbench

#endif  // TEMPSPEC_PERFBENCH_GEN_H_
