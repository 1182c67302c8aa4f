#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "timex/calendar.h"
#include "workload/tenant_driver.h"

namespace perfbench {

using tempspec::Scenario;

namespace {

constexpr int64_t kSec = 1000000;
constexpr int64_t kHour = 3600 * kSec;
constexpr int64_t kDay = 24 * kHour;
constexpr int64_t kWeek = 7 * kDay;
// Assignment weeks start two days past the epoch, ahead of any stamp a run
// reaches (VT_BEGIN PREDICTIVE requires vt_begin >= tt).
constexpr int64_t kAssignmentBase = 2 * kDay;
constexpr uint64_t kEmployees = 8;
constexpr int64_t kObjects = 16;
// Fixed read sets: the Zipf-skewed past instants and the early transaction
// times that keep ROLLBACK results at most kEarlyTts + 1 rows.
constexpr size_t kPastSet = 256;
constexpr int64_t kEarlyTts = 128;
constexpr size_t kRecent = 16;
constexpr double kZipfTheta = 0.99;
// Rows a narrow RANGE and a wide RANGE aim to return.
constexpr double kNarrowRows = 10;
constexpr double kWideRows = 3000;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kIngest, Workload::kHistoryScan, Workload::kChatter}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kIngest: return "ingest";
    case Workload::kHistoryScan: return "history_scan";
    case Workload::kChatter: return "chatter";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert: return "insert";
    case OpKind::kTimeslice: return "timeslice";
    case OpKind::kAsOf: return "asof";
    case OpKind::kRollback: return "rollback";
    case OpKind::kRange: return "range";
    case OpKind::kWideRange: return "wide_range";
  }
  return "?";
}

WorkloadSpec MakeSpec(Workload workload, int streams) {
  WorkloadSpec spec;
  spec.workload = workload;
  spec.relations = tempspec::SevenScenarios();
  uint64_t per_relation = 0;
  switch (workload) {
    case Workload::kIngest:
      per_relation = 10000;
      spec.write_share = 0.9;
      spec.read_weight[static_cast<int>(OpKind::kTimeslice)] = 1;
      break;
    case Workload::kHistoryScan:
      per_relation = 20000;
      spec.write_share = 0.02;
      spec.read_weight[static_cast<int>(OpKind::kTimeslice)] = 0.30;
      spec.read_weight[static_cast<int>(OpKind::kAsOf)] = 0.25;
      spec.read_weight[static_cast<int>(OpKind::kRollback)] = 0.15;
      spec.read_weight[static_cast<int>(OpKind::kRange)] = 0.24;
      spec.read_weight[static_cast<int>(OpKind::kWideRange)] = 0.06;
      break;
    case Workload::kChatter:
      per_relation = 4000;
      spec.write_share = 0.2;
      spec.read_weight[static_cast<int>(OpKind::kTimeslice)] = 1;
      break;
  }
  spec.preload.assign(spec.relations.size(), per_relation);
  if (workload == Workload::kHistoryScan) {
    spec.relations.push_back(Scenario::kGeneral);
    spec.preload.push_back(200000);
  }

  const int n = static_cast<int>(spec.relations.size());
  spec.owners.assign(streams, {});
  if (workload == Workload::kHistoryScan && streams > 1) {
    // general_events takes half the reads: it gets the last stream alone.
    for (int r = 0; r < n - 1; ++r) spec.owners[r % (streams - 1)].push_back(r);
    spec.owners[streams - 1].push_back(n - 1);
    for (int s = 0; s < streams - 1; ++s) {
      spec.stream_share.push_back(0.5 / (streams - 1));
    }
    spec.stream_share.push_back(0.5);
  } else {
    for (int r = 0; r < n; ++r) spec.owners[r % streams].push_back(r);
    for (int s = 0; s < streams; ++s) {
      spec.stream_share.push_back(static_cast<double>(spec.owners[s].size()) /
                                  n);
    }
  }
  return spec;
}

RelationGen::RelationGen(Scenario scenario, uint64_t seed)
    : scenario_(scenario),
      name_(tempspec::ScenarioRelationName(scenario)),
      interval_(scenario == Scenario::kAssignments ||
                scenario == Scenario::kArchaeology),
      rng_(Mix(seed, static_cast<uint64_t>(scenario) + 1)),
      employee_weeks_(kEmployees + 1, 0) {}

std::string RelationGen::Fmt(int64_t micros) const {
  return "'" + tempspec::FormatTimePoint(tempspec::TimePoint::FromMicros(micros)) +
         "'";
}

Op RelationGen::NextInsert() {
  Op op;
  op.kind = OpKind::kInsert;
  const int64_t tt = static_cast<int64_t>(ticks_++) * kSec;
  op.object = static_cast<uint64_t>(rng_.Uniform(1, kObjects));
  char value[32];
  std::snprintf(value, sizeof(value), "%.2f", 10.0 + rng_.NextDouble() * 80.0);
  op.amount = std::strtod(value, nullptr);
  std::string values = std::to_string(op.object) + ", " + value;

  int64_t vt = 0;
  switch (scenario_) {
    case Scenario::kProcessMonitoring:
      // Transmission delay well inside [1min, 2h].
      vt = tt - rng_.Uniform(300, 3600) * kSec;
      break;
    case Scenario::kDegenerateMonitoring:
      vt = (tt / kDay) * kDay;  // the stamp's chronon at 1d granularity
      break;
    case Scenario::kPayroll:
      vt = tt + rng_.Uniform(3 * 86400 + 7200, 7 * 86400 - 7200) * kSec;
      break;
    case Scenario::kAssignments: {
      // Round-robin employees, consecutive one-week intervals each.
      next_employee_ = next_employee_ % kEmployees + 1;
      const uint64_t week = employee_weeks_[next_employee_]++;
      op.object = next_employee_;
      op.label = "project-" + std::to_string(week % 5);
      values = std::to_string(op.object) + ", '" + op.label + "'";
      vt = kAssignmentBase + static_cast<int64_t>(week) * kWeek;
      op.vt_end_us = vt + kWeek;
      break;
    }
    case Scenario::kAccounting:
      vt = tt + rng_.Uniform(-5 * 86400 + 7200, 2 * 86400 - 7200) * kSec;
      break;
    case Scenario::kOrders:
      vt = tt + rng_.Uniform(-60 * 86400, 30 * 86400 - 7200) * kSec;
      break;
    case Scenario::kArchaeology:
      // Ever earlier one-hour layers: strictly decreasing begins.
      vt = -static_cast<int64_t>(++strata_layer_) * kHour;
      op.vt_end_us = vt + kHour;
      break;
    case Scenario::kGeneral:
      vt = tt + rng_.Uniform(-7200, 7200) * kSec;
      break;
  }
  op.vt_begin_us = vt;
  if (!interval_) op.vt_end_us = vt;

  op.statement = "INSERT INTO " + name_ + " OBJECT " +
                 std::to_string(op.object) + " VALUES (" + values + ") VALID ";
  if (interval_) {
    op.statement += "FROM " + Fmt(op.vt_begin_us) + " TO " + Fmt(op.vt_end_us);
  } else {
    op.statement += "AT " + Fmt(vt);
  }
  if (past_vts_.empty()) preload_vts_.push_back(vt);
  if (recent_vts_.size() < kRecent) {
    recent_vts_.push_back(vt);
  } else {
    recent_vts_[recent_next_++ % kRecent] = vt;
  }
  return op;
}

void RelationGen::FreezePastSets() {
  if (preload_vts_.empty()) preload_vts_.push_back(0);
  for (size_t i = 0; i < kPastSet; ++i) {
    past_vts_.push_back(preload_vts_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(preload_vts_.size()) - 1))]);
    past_tts_.push_back(
        rng_.Uniform(0, static_cast<int64_t>(std::max<uint64_t>(ticks_, 1)) - 1) *
        kSec);
  }
  const auto [lo, hi] =
      std::minmax_element(preload_vts_.begin(), preload_vts_.end());
  vt_lo_ = *lo;
  vt_hi_ = *hi;
  switch (scenario_) {
    case Scenario::kAssignments:
      range_width_us_ = kWeek;  // one interval per employee, ~16 rows
      break;
    case Scenario::kArchaeology:
      range_width_us_ = static_cast<int64_t>(kNarrowRows) * kHour;
      break;
    default: {
      // Event relations: width for ~kNarrowRows rows at the preload density.
      const double per_sec = static_cast<double>(preload_vts_.size()) /
                             std::max<double>(1.0, (vt_hi_ - vt_lo_) / 1e6);
      range_width_us_ =
          std::max<int64_t>(kSec, static_cast<int64_t>(kNarrowRows / per_sec) *
                                      kSec);
      break;
    }
  }
  preload_vts_.clear();
  preload_vts_.shrink_to_fit();
}

int64_t RelationGen::PastVt() {
  return past_vts_[static_cast<size_t>(
      rng_.Zipf(static_cast<int64_t>(past_vts_.size()), kZipfTheta))];
}

int64_t RelationGen::PastTt() {
  return past_tts_[static_cast<size_t>(
      rng_.Zipf(static_cast<int64_t>(past_tts_.size()), kZipfTheta))];
}

bool RelationGen::SupportsRead(OpKind kind) const {
  if (scenario_ == Scenario::kDegenerateMonitoring) {
    // Every element shares the day-0 chronon: only transaction-time
    // bounded reads stay small.
    return kind == OpKind::kAsOf || kind == OpKind::kRollback;
  }
  if (kind == OpKind::kWideRange) return scenario_ == Scenario::kGeneral;
  return !IsWrite(kind);
}

Op RelationGen::NextRead(OpKind kind, bool recent) {
  Op op;
  op.kind = kind;
  const bool degenerate = scenario_ == Scenario::kDegenerateMonitoring;
  int64_t vt = recent && !recent_vts_.empty()
                   ? recent_vts_[static_cast<size_t>(rng_.Uniform(
                         0, static_cast<int64_t>(recent_vts_.size()) - 1))]
                   : PastVt();
  switch (kind) {
    case OpKind::kTimeslice:
      op.at_us = vt;
      op.statement = "TIMESLICE " + name_ + " AT " + Fmt(vt);
      break;
    case OpKind::kAsOf: {
      // The degenerate relation answers tt + 1 rows: early tts only.
      const int64_t tt =
          degenerate ? rng_.Zipf(kEarlyTts, kZipfTheta) * kSec : PastTt();
      if (degenerate) vt = 0;
      op.at_us = vt;
      op.to_us = tt;
      op.statement =
          "TIMESLICE " + name_ + " AT " + Fmt(vt) + " AS OF " + Fmt(tt);
      break;
    }
    case OpKind::kRollback: {
      const int64_t tt = rng_.Zipf(kEarlyTts, kZipfTheta) * kSec;
      op.at_us = tt;
      op.statement = "ROLLBACK " + name_ + " TO " + Fmt(tt);
      break;
    }
    case OpKind::kRange:
    case OpKind::kWideRange: {
      int64_t width = range_width_us_;
      if (kind == OpKind::kWideRange) {
        width = static_cast<int64_t>(range_width_us_ * (kWideRows / kNarrowRows));
        // Keep the wide window inside the preloaded span so it stays full.
        vt = std::clamp(vt, vt_lo_, std::max(vt_lo_, vt_hi_ - width));
      }
      op.at_us = vt;
      op.to_us = vt + width;
      op.statement = "RANGE " + name_ + " FROM " + Fmt(vt) + " TO " +
                     Fmt(vt + width);
      break;
    }
    case OpKind::kInsert:
      break;
  }
  return op;
}

StreamGen::StreamGen(const WorkloadSpec& spec, int stream, uint64_t seed)
    : spec_(spec), owned_(spec.owners[static_cast<size_t>(stream)]) {
  for (int r : owned_) {
    gens_.push_back(std::make_unique<RelationGen>(
        spec.relations[static_cast<size_t>(r)],
        Mix(seed, static_cast<uint64_t>(spec.workload) + 17)));
  }
  for (int k = 1; k < kOpKinds; ++k) {
    for (size_t i = 0; i < gens_.size(); ++i) {
      if (spec.read_weight[k] > 0 &&
          gens_[i]->SupportsRead(static_cast<OpKind>(k))) {
        readable_[k].push_back(static_cast<int>(i));
      }
    }
  }
}

RelationGen& StreamGen::relation(int index) {
  for (size_t i = 0; i < owned_.size(); ++i) {
    if (owned_[i] == index) return *gens_[i];
  }
  std::abort();
}

std::vector<Op> StreamGen::Preload() {
  std::vector<Op> ops;
  uint64_t most = 0;
  for (int r : owned_) most = std::max(most, spec_.preload[static_cast<size_t>(r)]);
  for (uint64_t k = 0; k < most; ++k) {
    for (size_t i = 0; i < owned_.size(); ++i) {
      if (k >= spec_.preload[static_cast<size_t>(owned_[i])]) continue;
      Op op = gens_[i]->NextInsert();
      op.relation = owned_[i];
      ops.push_back(std::move(op));
    }
  }
  for (auto& gen : gens_) gen->FreezePastSets();
  return ops;
}

Op StreamGen::Next() {
  // The op mix is stratified, not drawn: an accumulator spaces the writes
  // at exactly write_share, read kinds follow a smooth weighted round-robin
  // and relations a plain round-robin. Every seed then runs the same mix,
  // and only instants and values vary with the seed.
  double total = 0;
  for (int k = 1; k < kOpKinds; ++k) {
    if (!readable_[k].empty()) total += spec_.read_weight[k];
  }
  write_credit_ += spec_.write_share;
  if (total <= 0 || write_credit_ >= 1) {
    if (write_credit_ >= 1) write_credit_ -= 1;
    const size_t i = next_writer_++ % owned_.size();
    Op op = gens_[i]->NextInsert();
    op.relation = owned_[i];
    return op;
  }
  int kind = 0;
  for (int k = 1; k < kOpKinds; ++k) {
    if (readable_[k].empty()) continue;
    read_credit_[k] += spec_.read_weight[k];
    if (kind == 0 || read_credit_[k] > read_credit_[kind]) kind = k;
  }
  read_credit_[kind] -= total;
  const std::vector<int>& candidates = readable_[kind];
  const size_t i =
      static_cast<size_t>(candidates[next_reader_[kind]++ % candidates.size()]);
  // Ingest probes just-written instants; chatter alternates recent and past.
  const bool recent = spec_.workload == Workload::kIngest ||
                      (spec_.workload == Workload::kChatter &&
                       next_reader_[kind] % 2 == 0);
  Op op = gens_[i]->NextRead(static_cast<OpKind>(kind), recent);
  op.relation = owned_[i];
  return op;
}

}  // namespace perfbench
