// Workload generators, one per application scenario named in the paper.
//
// Each generator builds a relation whose declared specialization matches the
// scenario, then drives its LogicalClock so transaction times land exactly
// where the scenario requires:
//
//   Process monitoring (Section 3.1, retroactive / delayed retroactive):
//     periodically sampled sensor values stored after a transmission delay.
//   Degenerate monitoring (Section 3.1, degenerate):
//     no delay within the granularity; the asynchronous recording method.
//   Direct-deposit payroll (Section 3.1, predictive / early strongly
//     predictively bounded): checks valid on the 1st, tape sent 3..7 days
//     ahead.
//   Employee assignments (Sections 3.1/3.3/3.4, retroactively bounded,
//     weekly intervals, per-surrogate contiguity).
//   Accounting (Section 3.1, strongly bounded): current-month entries with
//     bounded corrections.
//   Order entry (Section 3.1, predictively bounded): pending orders at most
//     30 days out, plus filled past orders.
//   Archaeology (Sections 3.2/3.4, non-increasing): excavation uncovers
//     progressively earlier strata.
//   General (baseline): unrestricted offsets.
#ifndef TEMPSPEC_WORKLOAD_WORKLOADS_H_
#define TEMPSPEC_WORKLOAD_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "relation/temporal_relation.h"
#include "timex/clock.h"
#include "util/random.h"
#include "util/result.h"

namespace tempspec {

/// \brief A relation plus the logical clock that drives it.
struct ScenarioRelation {
  std::unique_ptr<TemporalRelation> relation;
  std::shared_ptr<LogicalClock> clock;

  TemporalRelation* operator->() { return relation.get(); }
  TemporalRelation& operator*() { return *relation; }
};

/// \brief Common generator knobs.
struct WorkloadConfig {
  size_t num_objects = 16;      // sensors / employees / accounts / squares
  size_t ops_per_object = 64;   // samples / checks / assignments per object
  uint64_t seed = 42;
  /// Storage directory ("" = in-memory), forwarded to the relation.
  std::string storage_directory;
  /// When set, the relation is created WITHOUT its scenario's declared
  /// specializations (baseline mode: same data, no semantics to exploit).
  bool declare_specializations = true;
};

// Every Make* returns an opened relation with the scenario's schema and (per
// config) declared specializations; every Generate* fills it. Generators are
// deterministic under the same config.

/// \brief Temperature sampling with transmission delay in
/// [min_delay, max_delay]; declared delayed retroactive(min_delay) and
/// retroactively bounded(max_delay), sampled every `sample_every`.
Result<ScenarioRelation> MakeProcessMonitoring(const WorkloadConfig& config,
                                               Duration min_delay,
                                               Duration max_delay,
                                               Duration sample_every);
Status GenerateProcessMonitoring(const WorkloadConfig& config, Duration min_delay,
                                 Duration max_delay, Duration sample_every,
                                 ScenarioRelation* scenario);

/// \brief Zero-delay sampling: degenerate (+ strict temporal regularity when
/// jitterless).
Result<ScenarioRelation> MakeDegenerateMonitoring(const WorkloadConfig& config,
                                                  Duration sample_every);
Status GenerateDegenerateMonitoring(const WorkloadConfig& config,
                                    Duration sample_every,
                                    ScenarioRelation* scenario);

/// \brief Direct-deposit payroll: early strongly predictively bounded
/// (3..7 days).
Result<ScenarioRelation> MakePayroll(const WorkloadConfig& config);
Status GeneratePayroll(const WorkloadConfig& config, ScenarioRelation* scenario);

/// \brief Weekly project assignments (interval relation): vt_b-retroactively
/// bounded(1mo), strict valid interval regular (1 week), per-surrogate
/// contiguous.
Result<ScenarioRelation> MakeAssignments(const WorkloadConfig& config);
Status GenerateAssignments(const WorkloadConfig& config,
                           ScenarioRelation* scenario);

/// \brief Accounting entries: strongly bounded (5 days back, 2 days ahead).
Result<ScenarioRelation> MakeAccounting(const WorkloadConfig& config);
Status GenerateAccounting(const WorkloadConfig& config, ScenarioRelation* scenario);

/// \brief Order database: predictively bounded (30 days).
Result<ScenarioRelation> MakeOrders(const WorkloadConfig& config);
Status GenerateOrders(const WorkloadConfig& config, ScenarioRelation* scenario);

/// \brief Archaeology (interval relation): globally non-increasing strata.
Result<ScenarioRelation> MakeArchaeology(const WorkloadConfig& config);
Status GenerateArchaeology(const WorkloadConfig& config, ScenarioRelation* scenario);

/// \brief Unrestricted baseline: offsets uniform in [-spread, +spread].
Result<ScenarioRelation> MakeGeneral(const WorkloadConfig& config);
Status GenerateGeneral(const WorkloadConfig& config, Duration spread,
                       ScenarioRelation* scenario);

// ---------------------------------------------------------------------------
// Unified scenario surface: the paper's seven applications (plus the general
// baseline) addressable by enum, planned as data, and renderable as a
// deterministic query_lang statement stream. The traffic simulator
// (tools/tempspec_simulate) and the seeded-determinism property test are
// built on this; the Make*/Generate* pairs above remain as the scenario-
// specific entry points with extra knobs.
// ---------------------------------------------------------------------------

enum class Scenario {
  kProcessMonitoring,   // plant_temperatures: delayed retroactive + r-bounded
  kDegenerateMonitoring,// reactor_samples:    degenerate, strictly regular
  kPayroll,             // payroll_deposits:   early strongly pred. bounded
  kAssignments,         // assignments:        interval, vt_b-predictive
  kAccounting,          // ledger:             strongly bounded (5d back, 2d)
  kOrders,              // orders:             predictively bounded (30d)
  kArchaeology,         // strata:             interval, non-increasing
  kGeneral,             // general_events:     unrestricted baseline
};

/// \brief The seven paper applications, in the paper's order (kGeneral is
/// the baseline, not one of the seven).
const std::vector<Scenario>& SevenScenarios();

/// \brief All scenarios including the general baseline.
const std::vector<Scenario>& AllScenarios();

/// \brief The scenario's relation name ("plant_temperatures", ...).
const char* ScenarioRelationName(Scenario scenario);

/// \brief The paper application the scenario models ("chemical-plant
/// monitoring", "payroll", ...).
const char* ScenarioApplication(Scenario scenario);

/// \brief One planned mutation: the transaction-time instant at which the
/// element is stored, its valid time, and its payload. The plan is pure
/// data — Apply-ing it to a relation and rendering it as statements must
/// agree element for element.
struct PlannedInsert {
  TimePoint tt;
  ValidTime valid;
  ObjectSurrogate object;
  Tuple attributes;
};

/// \brief Plans a scenario's insert stream without touching any relation.
/// Deterministic: the same (scenario, config.seed, sizes) yields the
/// identical vector. Returned in transaction-time order (stable), exactly
/// the order Apply and ScenarioStatements use.
Result<std::vector<PlannedInsert>> PlanScenario(Scenario scenario,
                                                const WorkloadConfig& config);

/// \brief Opens the scenario's relation (schema + declared specializations
/// per config).
Result<ScenarioRelation> MakeScenario(Scenario scenario,
                                      const WorkloadConfig& config);

/// \brief Plans and applies the scenario's stream to an opened relation.
Status GenerateScenario(Scenario scenario, const WorkloadConfig& config,
                        ScenarioRelation* scenario_relation);

/// \brief Renders the scenario's planned stream as query_lang INSERT
/// statements, one per planned element, in apply order. Byte-deterministic
/// under the same config — the property the simulator's seeded mode and the
/// workload_determinism test gate on.
Result<std::vector<std::string>> ScenarioStatements(Scenario scenario,
                                                    const WorkloadConfig& config);

}  // namespace tempspec

#endif  // TEMPSPEC_WORKLOAD_WORKLOADS_H_
