#include "workload/workloads.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "timex/calendar.h"

namespace tempspec {

namespace {

// All scenarios play out in the paper's publication year.
TimePoint Epoch() { return FromCivil(CivilDateTime{1992, 1, 1, 0, 0, 0, 0}); }

// Canonical knobs for the scenarios whose specific entry points take extra
// parameters; the unified Scenario surface uses these.
constexpr int64_t kMonitoringMinDelaySecs = 30;
constexpr int64_t kMonitoringMaxDelaySecs = 120;
constexpr int64_t kMonitoringSampleSecs = 60;
constexpr int64_t kDegenerateSampleSecs = 10;
constexpr int64_t kGeneralSpreadHours = 2;

// The apply/render order: transaction time, stable on planning order.
void SortByTransactionTime(std::vector<PlannedInsert>* ops) {
  std::stable_sort(ops->begin(), ops->end(),
                   [](const PlannedInsert& a, const PlannedInsert& b) {
                     return a.tt < b.tt;
                   });
}

// Applies planned inserts in transaction-time order, steering the scenario's
// logical clock so each element is stored at its planned instant.
Status Apply(std::vector<PlannedInsert> ops, ScenarioRelation* scenario) {
  SortByTransactionTime(&ops);
  for (auto& op : ops) {
    scenario->clock->SetTo(op.tt);
    TS_RETURN_NOT_OK(scenario->relation
                         ->Insert(op.object, op.valid, std::move(op.attributes))
                         .status());
  }
  return Status::OK();
}

Result<ScenarioRelation> OpenScenario(const WorkloadConfig& config,
                                      SchemaPtr schema,
                                      SpecializationSet specs) {
  ScenarioRelation out;
  out.clock = std::make_shared<LogicalClock>(Epoch(), Duration::Seconds(1));
  RelationOptions options;
  options.schema = std::move(schema);
  if (config.declare_specializations) {
    options.specializations = std::move(specs);
  }
  options.clock = out.clock;
  options.storage.directory = config.storage_directory;
  TS_ASSIGN_OR_RETURN(out.relation, TemporalRelation::Open(std::move(options)));
  return out;
}

Result<SchemaPtr> MeasurementSchema(const std::string& name) {
  return Schema::Make(
      name,
      {AttributeDef{"sensor", ValueType::kInt64, AttributeRole::kTimeInvariantKey},
       AttributeDef{"reading", ValueType::kDouble, AttributeRole::kTimeVarying}},
      ValidTimeKind::kEvent, Granularity::Second(), Granularity::Second());
}

}  // namespace

// ---------------------------------------------------------------------------
// Process monitoring: delayed retroactive, retroactively bounded.
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeProcessMonitoring(const WorkloadConfig& config,
                                               Duration min_delay,
                                               Duration max_delay,
                                               Duration sample_every) {
  (void)sample_every;
  TS_ASSIGN_OR_RETURN(SchemaPtr schema, MeasurementSchema("plant_temperatures"));
  SpecializationSet specs;
  TS_ASSIGN_OR_RETURN(auto delayed,
                      EventSpecialization::DelayedRetroactive(min_delay));
  TS_ASSIGN_OR_RETURN(auto bounded,
                      EventSpecialization::RetroactivelyBounded(max_delay));
  specs.AddEvent(delayed).AddEvent(bounded);
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

Result<std::vector<PlannedInsert>> PlanProcessMonitoring(
    const WorkloadConfig& config, Duration min_delay, Duration max_delay,
    Duration sample_every) {
  Random rng(config.seed);
  const int64_t min_us = min_delay.micros();
  const int64_t max_us = max_delay.micros();
  if (max_us <= min_us) {
    return Status::InvalidArgument("max_delay must exceed min_delay");
  }
  std::vector<PlannedInsert> ops;
  ops.reserve(config.num_objects * config.ops_per_object);
  for (size_t sensor = 0; sensor < config.num_objects; ++sensor) {
    for (size_t i = 0; i < config.ops_per_object; ++i) {
      const TimePoint vt =
          Epoch() + sample_every * static_cast<int64_t>(i) +
          Duration::Millis(static_cast<int64_t>(sensor));  // offset per sensor
      // Keep one second of headroom below the declared upper bound so clock
      // collision nudges cannot escape the band.
      const int64_t delay =
          rng.Uniform(min_us, std::max(min_us, max_us - kMicrosPerSecond));
      PlannedInsert op;
      op.tt = vt + Duration::Micros(delay);
      op.valid = ValidTime::Event(vt);
      op.object = sensor + 1;
      op.attributes = Tuple{static_cast<int64_t>(sensor),
                            20.0 + 5.0 * rng.Gaussian(0.0, 1.0)};
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

}  // namespace

Status GenerateProcessMonitoring(const WorkloadConfig& config, Duration min_delay,
                                 Duration max_delay, Duration sample_every,
                                 ScenarioRelation* scenario) {
  TS_ASSIGN_OR_RETURN(
      std::vector<PlannedInsert> ops,
      PlanProcessMonitoring(config, min_delay, max_delay, sample_every));
  return Apply(std::move(ops), scenario);
}

// ---------------------------------------------------------------------------
// Degenerate monitoring: vt = tt, strictly temporally regular.
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeDegenerateMonitoring(const WorkloadConfig& config,
                                                  Duration sample_every) {
  TS_ASSIGN_OR_RETURN(SchemaPtr schema, MeasurementSchema("reactor_samples"));
  SpecializationSet specs;
  specs.AddEvent(EventSpecialization::Degenerate());
  TS_ASSIGN_OR_RETURN(
      auto regular,
      RegularitySpec::Make(RegularityDimension::kTemporal, sample_every,
                           /*strict=*/true));
  specs.AddRegularity(regular);
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanDegenerateMonitoring(const WorkloadConfig& config,
                                                    Duration sample_every) {
  Random rng(config.seed);
  const size_t total = config.num_objects * config.ops_per_object;
  std::vector<PlannedInsert> ops;
  ops.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const TimePoint t = Epoch() + sample_every * static_cast<int64_t>(i);
    PlannedInsert op;
    op.tt = t;
    op.valid = ValidTime::Event(t);
    op.object = (i % config.num_objects) + 1;
    op.attributes = Tuple{static_cast<int64_t>(i % config.num_objects),
                          300.0 + rng.Gaussian(0.0, 2.0)};
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

Status GenerateDegenerateMonitoring(const WorkloadConfig& config,
                                    Duration sample_every,
                                    ScenarioRelation* scenario) {
  return Apply(PlanDegenerateMonitoring(config, sample_every), scenario);
}

// ---------------------------------------------------------------------------
// Direct-deposit payroll: early strongly predictively bounded (3..7 days).
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakePayroll(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make("payroll_deposits",
                   {AttributeDef{"employee", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"amount", ValueType::kDouble,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second(),
                   Granularity::Second()));
  SpecializationSet specs;
  TS_ASSIGN_OR_RETURN(auto early,
                      EventSpecialization::EarlyStronglyPredictivelyBounded(
                          Duration::Days(3), Duration::Days(7)));
  specs.AddEvent(early);
  // All deposits are valid at the start of a month: calendric regularity.
  TS_ASSIGN_OR_RETURN(auto monthly,
                      RegularitySpec::Make(RegularityDimension::kValidTime,
                                           Duration::Months(1)));
  specs.AddRegularity(monthly);
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanPayroll(const WorkloadConfig& config) {
  Random rng(config.seed);
  std::vector<PlannedInsert> ops;
  ops.reserve(config.num_objects * config.ops_per_object);
  for (size_t month = 0; month < config.ops_per_object; ++month) {
    // Deposits effective the 1st of month+1.
    const TimePoint valid =
        AddMonths(Epoch(), static_cast<int64_t>(month) + 1);
    for (size_t emp = 0; emp < config.num_objects; ++emp) {
      // Tape sent 3..7 days ahead; an hour of headroom on both sides.
      const int64_t lead = rng.Uniform(3 * kMicrosPerDay + kMicrosPerHour,
                                       7 * kMicrosPerDay - kMicrosPerHour);
      PlannedInsert op;
      op.tt = valid - Duration::Micros(lead);
      op.valid = ValidTime::Event(valid);
      op.object = emp + 1;
      op.attributes = Tuple{static_cast<int64_t>(emp),
                            3000.0 + 500.0 * rng.NextDouble()};
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

}  // namespace

Status GeneratePayroll(const WorkloadConfig& config, ScenarioRelation* scenario) {
  return Apply(PlanPayroll(config), scenario);
}

// ---------------------------------------------------------------------------
// Weekly assignments (interval relation).
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeAssignments(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make("assignments",
                   {AttributeDef{"employee", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"project", ValueType::kString,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kInterval, Granularity::Hour(),
                   Granularity::Second()));
  SpecializationSet specs;
  // Assignments are recorded before the week begins: vt_b-predictive.
  specs.AddAnchoredEvent(
      AnchoredEventSpec(EventSpecialization::Predictive(), ValidAnchor::kBegin));
  // Every assignment spans exactly one week.
  TS_ASSIGN_OR_RETURN(
      auto weekly,
      IntervalRegularitySpec::Make(IntervalRegularityDimension::kValidTime,
                                   Duration::Weeks(1), /*strict=*/true));
  specs.AddIntervalRegularity(weekly);
  // Per employee, each week's assignment meets the next (contiguous).
  specs.AddSuccessive(SuccessiveSpec::Contiguous(SpecScope::kPerObjectSurrogate));
  specs.AddIntervalOrdering(IntervalOrderingSpec(
      IntervalOrderingKind::kNonDecreasing, SpecScope::kPerObjectSurrogate));
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanAssignments(const WorkloadConfig& config) {
  Random rng(config.seed);
  static const char* kProjects[] = {"apollo", "borealis", "castor", "deimos"};
  std::vector<PlannedInsert> ops;
  ops.reserve(config.num_objects * config.ops_per_object);
  for (size_t emp = 0; emp < config.num_objects; ++emp) {
    for (size_t week = 0; week < config.ops_per_object; ++week) {
      const TimePoint begin = Epoch() + Duration::Weeks(static_cast<int64_t>(week));
      const TimePoint end = begin + Duration::Weeks(1);
      PlannedInsert op;
      // Recorded 1..3 days before the week begins (staggered per employee so
      // transaction times are distinct).
      op.tt = begin - Duration::Hours(rng.Uniform(24, 72)) -
              Duration::Micros(static_cast<int64_t>(emp));
      op.valid = ValidTime::IntervalUnchecked(begin, end);
      op.object = emp + 1;
      op.attributes = Tuple{static_cast<int64_t>(emp),
                            std::string(kProjects[rng.Uniform(0, 3)])};
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

}  // namespace

Status GenerateAssignments(const WorkloadConfig& config,
                           ScenarioRelation* scenario) {
  return Apply(PlanAssignments(config), scenario);
}

// ---------------------------------------------------------------------------
// Accounting: strongly bounded (5 days back, 2 days ahead).
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeAccounting(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make("ledger",
                   {AttributeDef{"account", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"delta", ValueType::kDouble,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second(),
                   Granularity::Second()));
  SpecializationSet specs;
  TS_ASSIGN_OR_RETURN(auto bounded, EventSpecialization::StronglyBounded(
                                        Duration::Days(5), Duration::Days(2)));
  specs.AddEvent(bounded);
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanAccounting(const WorkloadConfig& config) {
  Random rng(config.seed);
  std::vector<PlannedInsert> ops;
  const size_t total = config.num_objects * config.ops_per_object;
  ops.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const TimePoint tt = Epoch() + Duration::Minutes(static_cast<int64_t>(i) * 7);
    const int64_t offset = rng.Uniform(-(5 * kMicrosPerDay - kMicrosPerHour),
                                       2 * kMicrosPerDay - kMicrosPerHour);
    PlannedInsert op;
    op.tt = tt;
    op.valid = ValidTime::Event(tt + Duration::Micros(offset));
    op.object = (i % config.num_objects) + 1;
    op.attributes = Tuple{static_cast<int64_t>(i % config.num_objects),
                          rng.Gaussian(0.0, 100.0)};
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

Status GenerateAccounting(const WorkloadConfig& config,
                          ScenarioRelation* scenario) {
  return Apply(PlanAccounting(config), scenario);
}

// ---------------------------------------------------------------------------
// Orders: predictively bounded (30 days).
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeOrders(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make("orders",
                   {AttributeDef{"customer", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"quantity", ValueType::kInt64,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kEvent, Granularity::Second(),
                   Granularity::Second()));
  SpecializationSet specs;
  TS_ASSIGN_OR_RETURN(auto bounded,
                      EventSpecialization::PredictivelyBounded(Duration::Days(30)));
  specs.AddEvent(bounded);
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanOrders(const WorkloadConfig& config) {
  Random rng(config.seed);
  std::vector<PlannedInsert> ops;
  const size_t total = config.num_objects * config.ops_per_object;
  ops.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const TimePoint tt = Epoch() + Duration::Minutes(static_cast<int64_t>(i) * 11);
    // Mostly already-filled orders (past), some pending at most 30 days out.
    const int64_t offset =
        rng.OneIn(0.7) ? -rng.Uniform(0, 60 * kMicrosPerDay)
                       : rng.Uniform(0, 30 * kMicrosPerDay - kMicrosPerHour);
    PlannedInsert op;
    op.tt = tt;
    op.valid = ValidTime::Event(tt + Duration::Micros(offset));
    op.object = (i % config.num_objects) + 1;
    op.attributes =
        Tuple{static_cast<int64_t>(i % config.num_objects), rng.Uniform(1, 500)};
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

Status GenerateOrders(const WorkloadConfig& config, ScenarioRelation* scenario) {
  return Apply(PlanOrders(config), scenario);
}

// ---------------------------------------------------------------------------
// Archaeology: globally non-increasing strata, sti-meets chain.
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeArchaeology(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      Schema::Make("strata",
                   {AttributeDef{"square", ValueType::kInt64,
                                 AttributeRole::kTimeInvariantKey},
                    AttributeDef{"artifact_count", ValueType::kInt64,
                                 AttributeRole::kTimeVarying}},
                   ValidTimeKind::kInterval, Granularity::Day(),
                   Granularity::Second()));
  SpecializationSet specs;
  specs.AddIntervalOrdering(
      IntervalOrderingSpec(IntervalOrderingKind::kNonIncreasing));
  // Each newly uncovered stratum ends exactly where the previous began:
  // successive transaction time inverse meets.
  specs.AddSuccessive(SuccessiveSpec(AllenRelation::kMeets,
                                     SpecScope::kPerRelation, /*inverse=*/true));
  return OpenScenario(config, schema, std::move(specs));
}

namespace {

std::vector<PlannedInsert> PlanArchaeology(const WorkloadConfig& config) {
  Random rng(config.seed);
  std::vector<PlannedInsert> ops;
  const size_t total = config.num_objects * config.ops_per_object;
  ops.reserve(total);
  // Strata reach back from the epoch, one decade per layer.
  TimePoint layer_end = Epoch();
  const Duration layer = Duration::Days(3650);
  for (size_t i = 0; i < total; ++i) {
    const TimePoint layer_begin = layer_end - layer;
    PlannedInsert op;
    op.tt = Epoch() + Duration::Days(static_cast<int64_t>(i) * 7);  // weekly digs
    op.valid = ValidTime::IntervalUnchecked(layer_begin, layer_end);
    op.object = (i % config.num_objects) + 1;
    op.attributes =
        Tuple{static_cast<int64_t>(i % config.num_objects), rng.Uniform(0, 40)};
    ops.push_back(std::move(op));
    layer_end = layer_begin;
  }
  return ops;
}

}  // namespace

Status GenerateArchaeology(const WorkloadConfig& config,
                           ScenarioRelation* scenario) {
  return Apply(PlanArchaeology(config), scenario);
}

// ---------------------------------------------------------------------------
// General baseline.
// ---------------------------------------------------------------------------

Result<ScenarioRelation> MakeGeneral(const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(SchemaPtr schema, MeasurementSchema("general_events"));
  return OpenScenario(config, schema, SpecializationSet());
}

namespace {

std::vector<PlannedInsert> PlanGeneral(const WorkloadConfig& config,
                                       Duration spread) {
  Random rng(config.seed);
  std::vector<PlannedInsert> ops;
  const size_t total = config.num_objects * config.ops_per_object;
  ops.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    const TimePoint tt = Epoch() + Duration::Minutes(static_cast<int64_t>(i));
    const int64_t offset = rng.Uniform(-spread.micros(), spread.micros());
    PlannedInsert op;
    op.tt = tt;
    op.valid = ValidTime::Event(tt + Duration::Micros(offset));
    op.object = (i % config.num_objects) + 1;
    op.attributes = Tuple{static_cast<int64_t>(i % config.num_objects),
                          rng.Gaussian(0.0, 1.0)};
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

Status GenerateGeneral(const WorkloadConfig& config, Duration spread,
                       ScenarioRelation* scenario) {
  return Apply(PlanGeneral(config, spread), scenario);
}

// ---------------------------------------------------------------------------
// Unified scenario surface.
// ---------------------------------------------------------------------------

const std::vector<Scenario>& SevenScenarios() {
  static const std::vector<Scenario> kSeven = {
      Scenario::kProcessMonitoring, Scenario::kDegenerateMonitoring,
      Scenario::kPayroll,           Scenario::kAssignments,
      Scenario::kAccounting,        Scenario::kOrders,
      Scenario::kArchaeology,
  };
  return kSeven;
}

const std::vector<Scenario>& AllScenarios() {
  static const std::vector<Scenario> kAll = [] {
    std::vector<Scenario> all = SevenScenarios();
    all.push_back(Scenario::kGeneral);
    return all;
  }();
  return kAll;
}

const char* ScenarioRelationName(Scenario scenario) {
  switch (scenario) {
    case Scenario::kProcessMonitoring: return "plant_temperatures";
    case Scenario::kDegenerateMonitoring: return "reactor_samples";
    case Scenario::kPayroll: return "payroll_deposits";
    case Scenario::kAssignments: return "assignments";
    case Scenario::kAccounting: return "ledger";
    case Scenario::kOrders: return "orders";
    case Scenario::kArchaeology: return "strata";
    case Scenario::kGeneral: return "general_events";
  }
  return "unknown";
}

const char* ScenarioApplication(Scenario scenario) {
  switch (scenario) {
    case Scenario::kProcessMonitoring: return "chemical-plant monitoring";
    case Scenario::kDegenerateMonitoring: return "periodic sampling";
    case Scenario::kPayroll: return "direct-deposit payroll";
    case Scenario::kAssignments: return "employee assignments";
    case Scenario::kAccounting: return "accounting";
    case Scenario::kOrders: return "order entry";
    case Scenario::kArchaeology: return "archaeology";
    case Scenario::kGeneral: return "general baseline";
  }
  return "unknown";
}

Result<std::vector<PlannedInsert>> PlanScenario(Scenario scenario,
                                                const WorkloadConfig& config) {
  Result<std::vector<PlannedInsert>> planned = [&] {
    switch (scenario) {
      case Scenario::kProcessMonitoring:
        return PlanProcessMonitoring(
            config, Duration::Seconds(kMonitoringMinDelaySecs),
            Duration::Seconds(kMonitoringMaxDelaySecs),
            Duration::Seconds(kMonitoringSampleSecs));
      case Scenario::kDegenerateMonitoring:
        return Result<std::vector<PlannedInsert>>(PlanDegenerateMonitoring(
            config, Duration::Seconds(kDegenerateSampleSecs)));
      case Scenario::kPayroll:
        return Result<std::vector<PlannedInsert>>(PlanPayroll(config));
      case Scenario::kAssignments:
        return Result<std::vector<PlannedInsert>>(PlanAssignments(config));
      case Scenario::kAccounting:
        return Result<std::vector<PlannedInsert>>(PlanAccounting(config));
      case Scenario::kOrders:
        return Result<std::vector<PlannedInsert>>(PlanOrders(config));
      case Scenario::kArchaeology:
        return Result<std::vector<PlannedInsert>>(PlanArchaeology(config));
      case Scenario::kGeneral:
        return Result<std::vector<PlannedInsert>>(
            PlanGeneral(config, Duration::Hours(kGeneralSpreadHours)));
    }
    return Result<std::vector<PlannedInsert>>(
        Status::InvalidArgument("unknown scenario"));
  }();
  TS_RETURN_NOT_OK(planned.status());
  std::vector<PlannedInsert> ops = std::move(planned).ValueOrDie();
  SortByTransactionTime(&ops);
  return ops;
}

Result<ScenarioRelation> MakeScenario(Scenario scenario,
                                      const WorkloadConfig& config) {
  switch (scenario) {
    case Scenario::kProcessMonitoring:
      return MakeProcessMonitoring(config,
                                   Duration::Seconds(kMonitoringMinDelaySecs),
                                   Duration::Seconds(kMonitoringMaxDelaySecs),
                                   Duration::Seconds(kMonitoringSampleSecs));
    case Scenario::kDegenerateMonitoring:
      return MakeDegenerateMonitoring(config,
                                      Duration::Seconds(kDegenerateSampleSecs));
    case Scenario::kPayroll: return MakePayroll(config);
    case Scenario::kAssignments: return MakeAssignments(config);
    case Scenario::kAccounting: return MakeAccounting(config);
    case Scenario::kOrders: return MakeOrders(config);
    case Scenario::kArchaeology: return MakeArchaeology(config);
    case Scenario::kGeneral: return MakeGeneral(config);
  }
  return Status::InvalidArgument("unknown scenario");
}

Status GenerateScenario(Scenario scenario, const WorkloadConfig& config,
                        ScenarioRelation* scenario_relation) {
  TS_ASSIGN_OR_RETURN(std::vector<PlannedInsert> ops,
                      PlanScenario(scenario, config));
  return Apply(std::move(ops), scenario_relation);
}

namespace {

// Value literal in the form ParseValueLiteral accepts back. %.17g
// round-trips every double exactly, so the rendered stream is as
// deterministic as the plan it came from.
std::string RenderValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return std::to_string(v.AsInt64());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + v.AsString() + "'";
    case ValueType::kBool:
      return v.AsBool() ? "TRUE" : "FALSE";
    case ValueType::kTime:
      return "'" + FormatTimePoint(v.AsTime()) + "'";
    case ValueType::kNull:
      break;
  }
  return "NULL";
}

}  // namespace

Result<std::vector<std::string>> ScenarioStatements(Scenario scenario,
                                                    const WorkloadConfig& config) {
  TS_ASSIGN_OR_RETURN(std::vector<PlannedInsert> ops,
                      PlanScenario(scenario, config));
  const std::string relation = ScenarioRelationName(scenario);
  std::vector<std::string> statements;
  statements.reserve(ops.size());
  for (const PlannedInsert& op : ops) {
    std::string s = "INSERT INTO " + relation + " OBJECT " +
                    std::to_string(op.object) + " VALUES (";
    for (size_t i = 0; i < op.attributes.size(); ++i) {
      if (i > 0) s += ", ";
      s += RenderValue(op.attributes.at(i));
    }
    s += ")";
    if (op.valid.is_event()) {
      s += " VALID AT '" + FormatTimePoint(op.valid.at()) + "'";
    } else {
      s += " VALID FROM '" + FormatTimePoint(op.valid.begin()) + "' TO '" +
           FormatTimePoint(op.valid.end()) + "'";
    }
    statements.push_back(std::move(s));
  }
  return statements;
}

}  // namespace tempspec
