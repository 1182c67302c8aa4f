#include "spec/drift.h"

#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "spec/lattice.h"

namespace tempspec {

namespace {

#ifdef TEMPSPEC_METRICS
// The drift metric names embed the relation name, so the handles cannot be
// cached in the function-local statics the TS_* macros use; the monitor
// caches them as members-by-closure here instead (registration is one
// mutexed map lookup at monitor construction, updates are lock-free).
std::string DriftMetricName(const char* what, const std::string& relation) {
  return std::string("tempspec.drift.") + what + "." + relation;
}
#endif

}  // namespace

std::string DriftReport::ToString() const {
  std::ostringstream ss;
  ss << "relation " << relation << "\n";
  ss << "  declared: "
     << (has_declaration ? EventSpecKindToString(declared) : "(none)") << "\n";
  if (observed_count == 0) {
    ss << "  observed: (no data)\n";
  } else {
    ss << "  observed: " << EventSpecKindToString(observed) << " over "
       << observed_count << " stamps, offsets [" << profile.min_offset_us
       << "us, " << profile.max_offset_us << "us]\n";
  }
  if (has_declaration) {
    ss << "  state: "
       << (observed_count == 0 ? "no data"
                               : (conforming ? "conforming" : "DRIFTED"))
       << ", lattice distance " << lattice_distance << ", violations "
       << violations << "\n";
  }
  ss << "  figure-1 occupancy:\n";
  for (const DriftRegionCount& r : regions) {
    ss << "    " << r.count << "  " << EventSpecKindToString(r.kind) << " ["
       << r.construction << "]\n";
  }
  return ss.str();
}

size_t EventKindLatticeDistance(EventSpecKind a, EventSpecKind b) {
  auto d = SpecLattice::EventTaxonomy().Distance(EventSpecKindToString(a),
                                                 EventSpecKindToString(b));
  // Every kind is a node of the (connected) Figure-2 lattice; Distance can
  // only fail on foreign names.
  return d.ok() ? *d : 0;
}

bool EventKindConforms(EventSpecKind declared, EventSpecKind observed) {
  return SpecLattice::EventTaxonomy().IsDescendant(
      EventSpecKindToString(declared), EventSpecKindToString(observed));
}

RelationDriftMonitor::RelationDriftMonitor(std::string relation_name,
                                           const SpecializationSet& declared,
                                           Granularity granularity,
                                           Duration delta_small,
                                           Duration delta_large)
    : relation_name_(std::move(relation_name)),
      granularity_(granularity),
      panes_(EnumerateEventRegions(delta_small, delta_large)),
      profile_(granularity),
      pane_counts_(panes_.size(), 0) {
  for (const EventSpecialization& spec : declared.event_specs()) {
    if (spec.anchor() != TransactionAnchor::kInsertion) continue;
    declared_specs_.push_back(spec);
  }
  if (!declared_specs_.empty()) {
    has_declaration_ = true;
    // The declaration as a whole is the intersection of the declared bands;
    // classify it to one kind for the lattice comparison. Any degenerate
    // declaration dominates (its band is the diagonal).
    Band joint = Band::All();
    bool degenerate = false;
    for (const EventSpecialization& spec : declared_specs_) {
      joint = joint.Intersect(spec.band());
      degenerate = degenerate || spec.kind() == EventSpecKind::kDegenerate;
    }
    declared_kind_ = degenerate ? EventSpecKind::kDegenerate
                                : EventSpecialization::ClassifyBand(joint);
  }
}

bool RelationDriftMonitor::SatisfiesDeclared(TimePoint tt, TimePoint vt) const {
  for (const EventSpecialization& spec : declared_specs_) {
    const bool ok = spec.kind() == EventSpecKind::kDegenerate
                        ? granularity_.Same(tt, vt)
                        : spec.Satisfies(tt, vt);
    if (!ok) return false;
  }
  return true;
}

void RelationDriftMonitor::Observe(TimePoint tt, TimePoint vt) {
  EventSpecKind observed;
  size_t distance;
  bool violated;
  {
    std::lock_guard<std::mutex> lock(mu_);
    profile_.Observe(tt, vt);
    for (size_t i = 0; i < panes_.size(); ++i) {
      // The degenerate pane uses chronon-equality at the relation's
      // granularity (mirroring CheckElement); every other pane is the raw
      // Figure-1 band test the property-test oracle checks.
      const bool in_pane = panes_[i].kind == EventSpecKind::kDegenerate
                               ? granularity_.Same(tt, vt)
                               : panes_[i].band.Contains(tt, vt);
      if (in_pane) ++pane_counts_[i];
    }
    violated = has_declaration_ && !SatisfiesDeclared(tt, vt);
    if (violated) ++violations_;
    observed = profile_.ObservedKind();
    distance = has_declaration_
                   ? EventKindLatticeDistance(declared_kind_, observed)
                   : 0;
    if (violated && violations_ == 1) {
      // The conforming→drifted transition is a decision-plane milestone: the
      // flight recorder keeps the exact moment and relation.
      TS_FLIGHT(FlightCategory::kDrift, FlightCode::kDriftVerdict, observed,
                distance, relation_name_);
    }
  }
#ifdef TEMPSPEC_METRICS
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.GetGauge(DriftMetricName("observed_kind", relation_name_))
      .Set(static_cast<int64_t>(observed));
  reg.GetGauge(DriftMetricName("lattice_distance", relation_name_))
      .Set(static_cast<int64_t>(distance));
  reg.GetCounter(DriftMetricName("observed_stamps", relation_name_))
      .Increment();
  if (violated) {
    reg.GetCounter(DriftMetricName("violations", relation_name_)).Increment();
  }
#else
  static_cast<void>(observed);
  static_cast<void>(distance);
  static_cast<void>(violated);
#endif
}

DriftReport RelationDriftMonitor::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftReport report;
  report.relation = relation_name_;
  report.has_declaration = has_declaration_;
  report.declared = declared_kind_;
  report.profile = profile_.Profile();
  report.observed_count = profile_.count();
  report.observed = profile_.ObservedKind();
  report.violations = violations_;
  if (has_declaration_ && report.observed_count > 0) {
    report.lattice_distance =
        EventKindLatticeDistance(declared_kind_, report.observed);
    report.conforming = violations_ == 0;
  }
  report.regions.reserve(panes_.size());
  for (size_t i = 0; i < panes_.size(); ++i) {
    report.regions.push_back(DriftRegionCount{
        panes_[i].construction, panes_[i].kind, pane_counts_[i]});
  }
  return report;
}

}  // namespace tempspec
