#include "flow/replicator.h"

#include <algorithm>

namespace tempspec {

Result<Band> PropagatedBand(const Band& source, Duration min_delay,
                            Duration max_delay) {
  if (min_delay.IsNegative()) {
    return Status::InvalidArgument("propagation delay cannot be negative");
  }
  auto cmp = CompareOffsets(min_delay, max_delay);
  if (!cmp.has_value() || *cmp > 0) {
    return Status::InvalidArgument("require min_delay <= max_delay (decidably)");
  }
  Band out = Band::All();
  // vt - tt_dst = (vt - tt_src) - d, d ∈ [d_min, d_max]:
  //   lower: lo - d_max; upper: hi - d_min. Openness carries over.
  if (source.lower()) {
    out = out.Intersect(
        Band::AtLeast(source.lower()->offset - max_delay, source.lower()->open));
  }
  if (source.upper()) {
    out = out.Intersect(
        Band::AtMost(source.upper()->offset - min_delay, source.upper()->open));
  }
  return out;
}

Result<EventSpecialization> PropagatedSpec(const EventSpecialization& source,
                                           Duration min_delay,
                                           Duration max_delay) {
  TS_ASSIGN_OR_RETURN(Band band,
                      PropagatedBand(source.band(), min_delay, max_delay));
  // Degenerate sources become bands, not degenerate targets, so classify
  // the propagated band directly.
  const EventSpecKind kind = EventSpecialization::ClassifyBand(band);
  auto offset_of = [](const std::optional<BandBound>& b) {
    return b ? b->offset : Duration::Zero();
  };
  switch (kind) {
    case EventSpecKind::kGeneral:
      return EventSpecialization::General();
    case EventSpecKind::kRetroactive:
      return EventSpecialization::Retroactive();
    case EventSpecKind::kDelayedRetroactive:
      return EventSpecialization::DelayedRetroactive(-offset_of(band.upper()));
    case EventSpecKind::kPredictive:
      return EventSpecialization::Predictive();
    case EventSpecKind::kEarlyPredictive:
      return EventSpecialization::EarlyPredictive(offset_of(band.lower()));
    case EventSpecKind::kRetroactivelyBounded:
      return EventSpecialization::RetroactivelyBounded(-offset_of(band.lower()));
    case EventSpecKind::kPredictivelyBounded:
      return EventSpecialization::PredictivelyBounded(offset_of(band.upper()));
    case EventSpecKind::kStronglyRetroactivelyBounded:
      return EventSpecialization::StronglyRetroactivelyBounded(
          -offset_of(band.lower()));
    case EventSpecKind::kDelayedStronglyRetroactivelyBounded:
      return EventSpecialization::DelayedStronglyRetroactivelyBounded(
          -offset_of(band.upper()), -offset_of(band.lower()));
    case EventSpecKind::kStronglyPredictivelyBounded:
      return EventSpecialization::StronglyPredictivelyBounded(
          offset_of(band.upper()));
    case EventSpecKind::kEarlyStronglyPredictivelyBounded:
      return EventSpecialization::EarlyStronglyPredictivelyBounded(
          offset_of(band.lower()), offset_of(band.upper()));
    case EventSpecKind::kStronglyBounded:
      return EventSpecialization::StronglyBounded(-offset_of(band.lower()),
                                                  offset_of(band.upper()));
    case EventSpecKind::kDegenerate:
      return EventSpecialization::Degenerate();
  }
  return Status::Internal("unreachable");
}

Status Replicator::Sync() {
  // The source's operation stream, derived from its elements: transaction
  // time only grows, so operations after the last Sync extend the stream.
  const std::vector<BacklogEntry> entries = OperationsOf(source_->elements());

  struct PendingOp {
    TimePoint target_tt;
    const BacklogEntry* entry;
  };
  std::vector<PendingOp> pending;
  const int64_t min_us = min_delay_.micros();
  const int64_t max_us =
      std::max(min_us, max_delay_.micros() - kMicrosPerSecond);
  // Plan target stamps first so per-object causality can be enforced before
  // ordering: a delete is scheduled strictly after its insert's planned
  // stamp even when the independent delays would invert them.
  std::unordered_map<ElementSurrogate, TimePoint> planned_insert_tt =
      target_insert_tt_;
  for (size_t i = position_; i < entries.size(); ++i) {
    const BacklogEntry& entry = entries[i];
    const Duration delay = Duration::Micros(rng_.Uniform(min_us, max_us));
    TimePoint target_tt = entry.tt + delay;
    if (entry.op == BacklogOpType::kInsert) {
      planned_insert_tt[entry.element.element_surrogate] = target_tt;
    } else {
      auto it = planned_insert_tt.find(entry.target);
      if (it == planned_insert_tt.end()) {
        return Status::Internal("delete of unreplicated element #", entry.target);
      }
      if (!(target_tt > it->second)) {
        target_tt = TimePoint::FromMicros(it->second.micros() + 1);
      }
    }
    pending.push_back(PendingOp{target_tt, &entry});
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingOp& a, const PendingOp& b) {
                     return a.target_tt < b.target_tt;
                   });

  for (const PendingOp& op : pending) {
    if (op.entry->op == BacklogOpType::kInsert) {
      const Element& src = op.entry->element;
      target_clock_->SetTo(op.target_tt);
      TS_ASSIGN_OR_RETURN(ElementSurrogate target_id,
                          target_->Insert(src.object_surrogate, src.valid,
                                          src.attributes));
      surrogate_map_[src.element_surrogate] = target_id;
      TS_ASSIGN_OR_RETURN(Element replicated, target_->GetElement(target_id));
      target_insert_tt_[src.element_surrogate] = replicated.tt_begin;
    } else {
      auto it = surrogate_map_.find(op.entry->target);
      if (it == surrogate_map_.end()) {
        return Status::Internal(
            "delete of element #", op.entry->target,
            " arrived before its insert was replicated — delay bounds must "
            "not exceed the source's insert/delete spacing");
      }
      // Per-object causality: a delete never lands before its insert.
      TimePoint tt = op.target_tt;
      const TimePoint inserted_at = target_insert_tt_[op.entry->target];
      if (!(tt > inserted_at)) {
        tt = TimePoint::FromMicros(inserted_at.micros() + 1);
      }
      target_clock_->SetTo(tt);
      TS_RETURN_NOT_OK(target_->LogicalDelete(it->second));
    }
  }
  position_ = entries.size();
  return Status::OK();
}

Result<ElementSurrogate> Replicator::TargetOf(
    ElementSurrogate source_surrogate) const {
  auto it = surrogate_map_.find(source_surrogate);
  if (it == surrogate_map_.end()) {
    return Status::NotFound("element #", source_surrogate,
                            " has not been replicated");
  }
  return it->second;
}

}  // namespace tempspec
