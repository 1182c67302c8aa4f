// QueryService: a catalog wrapped for concurrent statement execution — the
// engine behind the network daemon (tools/tempspec_serve).
//
// The service classifies each statement with IsWriteStatement and takes a
// shared (read) or exclusive (write) lock on the catalog, upholding the
// relations' single-writer contract (relation/temporal_relation.h) while
// letting read statements from many connections run concurrently. CREATE /
// DROP RELATION are handled here rather than in query_lang because they
// mutate the catalog itself and must pick a storage directory.
//
// Persistence layout under `data_dir` (empty = fully in-memory):
//
//   <data_dir>/schemas.sql          canonical DDL, one statement per
//                                   relation (Catalog::SaveSchemas)
//   <data_dir>/relations/<name>/    per-relation backlog storage (WAL +
//                                   page file)
//
// Open() replays schemas.sql, opening each relation on its own directory —
// a restart recovers both the schemas and, through the backlog WAL, the
// data. This is the only schema loader.
#ifndef TEMPSPEC_CATALOG_QUERY_SERVICE_H_
#define TEMPSPEC_CATALOG_QUERY_SERVICE_H_

#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/query_lang.h"
#include "util/result.h"

namespace tempspec {

struct QueryServiceOptions {
  /// Root of the persistence tree; empty keeps everything in memory.
  std::string data_dir;
  /// Template for non-declarative relation knobs (clock, granularity
  /// policy). Its schema/specializations/storage directory are
  /// ignored; the storage directory is derived per relation.
  RelationOptions relation_base;
};

class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options = {});

  /// \brief Creates the data-dir layout and replays schemas.sql, opening
  /// (and WAL-recovering) every persisted relation. Call once before
  /// Execute. A missing schemas.sql is an empty catalog, not an error.
  Status Open();

  /// \brief Executes one statement under the appropriate lock and renders
  /// the output as text. `trace` (may be null) carries deadline and
  /// cancellation through to the executor's morsel-boundary polls.
  Result<std::string> Execute(const std::string& statement,
                              TraceContext* trace);

  std::vector<std::string> RelationNames() const;

  const QueryServiceOptions& options() const { return options_; }

  /// \brief Direct catalog access for tests and single-threaded setup;
  /// bypasses the statement locks.
  Catalog& catalog() { return catalog_; }

 private:
  /// CREATE ... RELATION: derives the storage directory, opens, persists.
  Result<std::string> ExecuteCreate(const std::string& statement);
  /// DROP RELATION <name>: unregisters and persists (files stay on disk).
  Result<std::string> ExecuteDrop(const std::string& statement);
  Status PersistSchemas();
  /// Relation options with the per-relation storage directory applied.
  RelationOptions BaseFor(const std::string& relation_name) const;
  std::string SchemasPath() const;

  QueryServiceOptions options_;
  Catalog catalog_;
  /// Writers exclusive (single-writer contract), readers shared.
  mutable std::shared_mutex mu_;
};

}  // namespace tempspec

#endif  // TEMPSPEC_CATALOG_QUERY_SERVICE_H_
