// Relation catalog: named registry of schemas, declared specializations, and
// the relations themselves.
#ifndef TEMPSPEC_CATALOG_CATALOG_H_
#define TEMPSPEC_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/advisor.h"
#include "relation/temporal_relation.h"
#include "util/result.h"

namespace tempspec {

/// \brief Owns a set of temporal relations and their design metadata.
class Catalog {
 public:
  /// \brief Validates the declaration, opens the relation, and registers it
  /// under its schema name. Fails on duplicate names.
  Result<TemporalRelation*> CreateRelation(RelationOptions options);

  /// \brief Parses a CREATE ... RELATION statement (lang/ddl.h) and opens
  /// the relation. Non-declarative knobs (clock, storage, granularity policy) come
  /// from `base`, whose schema/specializations are ignored.
  Result<TemporalRelation*> CreateRelationFromDdl(const std::string& ddl,
                                                  RelationOptions base = {});

  /// \brief Registered relation by name.
  Result<TemporalRelation*> Get(const std::string& name) const;

  /// \brief Advisor report for a registered relation.
  Result<AdvisorReport> AdviseFor(const std::string& name) const;

  std::vector<std::string> RelationNames() const;

  /// \brief Drops a relation (in-memory; storage files are left in place).
  Status Drop(const std::string& name);

  /// \brief Multi-line listing of every relation, its declaration, and its
  /// advisor summary.
  std::string Describe() const;

  /// \brief Writes every registered relation as canonical DDL, one statement
  /// per relation, to `path` (the schema-persistence file). The file is
  /// replaced crash-atomically: a side file is fsynced and renamed over it.
  Status SaveSchemas(const std::string& path) const;

 private:
  std::map<std::string, std::unique_ptr<TemporalRelation>> relations_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_CATALOG_CATALOG_H_
