#include "catalog/catalog.h"

#include <cstdio>
#include <fstream>

#include "lang/ddl.h"
#include "storage/disk_manager.h"

namespace tempspec {

Status Catalog::SaveSchemas(const std::string& path) const {
  // Never rewrite the file in place: a crash mid-write would leave it empty
  // or torn, and an empty file reopens as an empty catalog. Write a side
  // file, make it durable, then rename it over the old one and make the
  // rename durable.
  const std::string side = path + ".tmp";
  std::ofstream out(side, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '", side, "' for writing");
  }
  for (const auto& [name, rel] : relations_) {
    out << ToDdl(rel->schema(), rel->specializations()) << "\n\n";
  }
  out.close();
  if (!out) {
    return Status::IOError("write to '", side, "' failed");
  }
  TS_RETURN_NOT_OK(FsyncPath(side));
  if (std::rename(side.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename '", side, "' to '", path, "'");
  }
  return FsyncParentDirectory(path);
}

Result<TemporalRelation*> Catalog::CreateRelationFromDdl(const std::string& ddl,
                                                         RelationOptions base) {
  TS_ASSIGN_OR_RETURN(ParsedRelation parsed, ParseCreateRelation(ddl));
  base.schema = std::move(parsed.schema);
  base.specializations = std::move(parsed.specializations);
  return CreateRelation(std::move(base));
}

Result<TemporalRelation*> Catalog::CreateRelation(RelationOptions options) {
  if (!options.schema) {
    return Status::InvalidArgument("relation requires a schema");
  }
  const std::string name = options.schema->relation_name();
  if (relations_.count(name)) {
    return Status::AlreadyExists("relation '", name, "' already registered");
  }
  TS_ASSIGN_OR_RETURN(auto relation, TemporalRelation::Open(std::move(options)));
  TemporalRelation* ptr = relation.get();
  relations_[name] = std::move(relation);
  return ptr;
}

Result<TemporalRelation*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '", name, "'");
  }
  return it->second.get();
}

Result<AdvisorReport> Catalog::AdviseFor(const std::string& name) const {
  TS_ASSIGN_OR_RETURN(TemporalRelation * rel, Get(name));
  AdvisorReport report = Advise(rel->schema(), rel->specializations());
  // Fold in drift: advice derived from the declaration is only sound while
  // the data stays inside its declared region.
  const DriftReport drift = rel->DriftState();
  if (drift.has_declaration && drift.observed_count > 0) {
    if (!drift.conforming || drift.violations > 0) {
      report.notes.push_back(
          std::string("DRIFT: declared ") +
          EventSpecKindToString(drift.declared) + " but observed " +
          EventSpecKindToString(drift.observed) + " (lattice distance " +
          std::to_string(drift.lattice_distance) + ", " +
          std::to_string(drift.violations) +
          " attempted violations) — the advice above may no longer fit the "
          "workload");
    } else if (drift.lattice_distance > 0) {
      report.notes.push_back(
          std::string("drift: data is strictly tighter than declared (") +
          EventSpecKindToString(drift.observed) + ", lattice distance " +
          std::to_string(drift.lattice_distance) +
          ") — a tighter declaration would unlock more advice");
    }
  }
  return report;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) out.push_back(name);
  return out;
}

Status Catalog::Drop(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("no relation named '", name, "'");
  }
  return Status::OK();
}

std::string Catalog::Describe() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += rel->schema().ToString() + "\n";
    out += rel->specializations().ToString();
    out += Advise(rel->schema(), rel->specializations()).ToString();
    out += "\n";
  }
  return out;
}

}  // namespace tempspec
