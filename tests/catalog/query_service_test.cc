// QueryService (catalog/query_service.h): the daemon's execution layer.
// Covers DDL through statements, schemas.sql + per-relation storage-dir
// persistence, recovery of both schemas and data on reopen, drop, and the
// in-memory mode the tests and benchmarks use.
#include "catalog/query_service.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "testing.h"

namespace tempspec {
namespace {

std::string MakeTempDir() {
  char pattern[] = "/tmp/tempspec_svc_XXXXXX";
  const char* dir = ::mkdtemp(pattern);
  return dir == nullptr ? "" : dir;
}

constexpr char kCreate[] =
    "CREATE EVENT RELATION readings (sensor INT64 KEY, celsius DOUBLE) "
    "GRANULARITY 1s";

constexpr char kCreateDeclared[] =
    "CREATE EVENT RELATION feed (id INT64 KEY) "
    "WITH DELAYED RETROACTIVE 30s, NONDECREASING";

TEST(QueryServiceTest, InMemoryLifecycle) {
  QueryService service{QueryServiceOptions{}};
  ASSERT_OK(service.Open());
  ASSERT_OK_AND_ASSIGN(std::string created,
                       service.Execute(kCreate, nullptr));
  EXPECT_NE(created.find("created relation readings"), std::string::npos);
  ASSERT_OK(service
                .Execute(
                    "INSERT INTO readings OBJECT 3 VALUES (3, 21.5) "
                    "VALID AT '1992-02-03 10:00:00'",
                    nullptr)
                .status());
  ASSERT_OK_AND_ASSIGN(std::string current,
                       service.Execute("CURRENT readings", nullptr));
  EXPECT_NE(current.find("1 element(s)"), std::string::npos) << current;
  ASSERT_OK_AND_ASSIGN(std::string dropped,
                       service.Execute("DROP RELATION readings", nullptr));
  EXPECT_NE(dropped.find("dropped relation readings"), std::string::npos);
  EXPECT_FALSE(service.Execute("CURRENT readings", nullptr).ok());
}

TEST(QueryServiceTest, PersistsSchemasAndDataAcrossReopen) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  QueryServiceOptions options;
  options.data_dir = dir;
  {
    QueryService service(options);
    ASSERT_OK(service.Open());
    ASSERT_OK(service.Execute(kCreate, nullptr).status());
    ASSERT_OK(service.Execute(kCreateDeclared, nullptr).status());
    ASSERT_OK(service
                  .Execute(
                      "INSERT INTO readings OBJECT 3 VALUES (3, 21.5) "
                      "VALID AT '1992-02-03 10:00:00'",
                      nullptr)
                  .status());
    // The on-disk layout is the documented one: schemas.sql at the root,
    // one storage directory per relation.
    EXPECT_TRUE(std::filesystem::exists(dir + "/schemas.sql"));
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/relations/readings"));
  }
  {
    QueryService reopened(options);
    ASSERT_OK(reopened.Open());
    ASSERT_EQ(reopened.RelationNames().size(), 2u);
    ASSERT_OK_AND_ASSIGN(std::string current,
                         reopened.Execute("CURRENT readings", nullptr));
    EXPECT_NE(current.find("1 element(s)"), std::string::npos) << current;
    // And the recovered relation accepts further writes.
    ASSERT_OK(reopened
                  .Execute(
                      "INSERT INTO readings OBJECT 4 VALUES (4, 22.0) "
                      "VALID AT '1992-02-03 11:00:00'",
                      nullptr)
                  .status());
    // The declared specializations come back with the schema...
    ASSERT_OK_AND_ASSIGN(TemporalRelation * feed,
                         reopened.catalog().Get("feed"));
    ASSERT_EQ(feed->specializations().event_specs().size(), 1u);
    EXPECT_EQ(feed->specializations().event_specs()[0].kind(),
              EventSpecKind::kDelayedRetroactive);
    EXPECT_EQ(feed->specializations().orderings().size(), 1u);
    // ...and the reloaded relation enforces them: a fact valid after it is
    // stored is not delayed retroactive.
    EXPECT_FALSE(reopened
                     .Execute(
                         "INSERT INTO feed OBJECT 1 VALUES (1) "
                         "VALID AT '2999-01-01 00:00:00'",
                         nullptr)
                     .ok());
    ASSERT_OK_AND_ASSIGN(std::string feed_rows,
                         reopened.Execute("CURRENT feed", nullptr));
    EXPECT_NE(feed_rows.find("0 element(s)"), std::string::npos) << feed_rows;
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, ReadRepliesAreByteIdenticalAcrossReopen) {
  // A read's reply carries its plan line (candidate range and probe budget)
  // and its examined count (the valid-index probe's work, which depends on
  // the index's run layout). Recovery rebuilds the index by re-inserting in
  // the same order, so every reply — examined count included — must come
  // back byte for byte. 200 rows leave three sealed runs plus a tail.
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  QueryServiceOptions options;
  options.data_dir = dir;
  const std::vector<std::string> reads = {
      "TIMESLICE readings AT '1992-02-03 10:00:00'",
      "TIMESLICE readings AT '1992-02-03 12:30:00'",
      "TIMESLICE readings AT '1992-02-03 13:00:00' AS OF '2999-01-01 00:00:00'",
      "RANGE readings FROM '1992-02-03 11:00:00' TO '1992-02-03 11:45:00'",
      "RANGE readings FROM '1992-02-03 09:00:00' TO '1992-02-04 00:00:00'",
      "EXPLAIN TIMESLICE readings AT '1992-02-03 10:10:00'",
      "ROLLBACK readings TO '1990-01-01 00:00:00'",
  };
  std::vector<std::string> before;
  {
    QueryService service(options);
    ASSERT_OK(service.Open());
    ASSERT_OK(service.Execute(kCreate, nullptr).status());
    for (int i = 0; i < 200; ++i) {
      // Ten sensors reporting every few minutes, with repeated instants.
      const int minute = (i * 7) % 300;
      char statement[160];
      std::snprintf(statement, sizeof(statement),
                    "INSERT INTO readings OBJECT %d VALUES (%d, %d.5) VALID AT "
                    "'1992-02-03 %02d:%02d:00'",
                    i % 10, i % 10, i, 9 + minute / 60, minute % 60);
      ASSERT_OK(service.Execute(statement, nullptr).status());
    }
    for (const std::string& read : reads) {
      ASSERT_OK_AND_ASSIGN(std::string reply, service.Execute(read, nullptr));
      before.push_back(reply);
    }
    EXPECT_NE(before[0].find("valid-time interval index"), std::string::npos)
        << before[0];
  }
  {
    QueryService reopened(options);
    ASSERT_OK(reopened.Open());
    for (size_t i = 0; i < reads.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(std::string reply,
                           reopened.Execute(reads[i], nullptr));
      EXPECT_EQ(reply, before[i]) << reads[i];
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, SchemaFileIsReplacedNotRewrittenInPlace) {
  // schemas.sql is replaced by rename: a reader of the old file keeps the
  // old, complete contents, and a crash mid-write can never leave the live
  // path empty or torn (an empty file would reopen as an empty catalog).
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  QueryServiceOptions options;
  options.data_dir = dir;
  QueryService service(options);
  ASSERT_OK(service.Open());
  ASSERT_OK(service.Execute(kCreate, nullptr).status());
  const std::string path = dir + "/schemas.sql";
  const int old_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(old_fd, 0);
  ASSERT_OK(service.Execute(kCreateDeclared, nullptr).status());

  const auto read_all = [](int fd) {
    std::string out;
    char buf[4096];
    off_t off = 0;
    ssize_t n;
    while ((n = ::pread(fd, buf, sizeof(buf), off)) > 0) {
      out.append(buf, static_cast<size_t>(n));
      off += n;
    }
    return out;
  };
  const std::string old_text = read_all(old_fd);
  ::close(old_fd);
  EXPECT_NE(old_text.find("RELATION readings"), std::string::npos) << old_text;
  EXPECT_EQ(old_text.find("RELATION feed"), std::string::npos) << old_text;

  const int new_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(new_fd, 0);
  const std::string new_text = read_all(new_fd);
  ::close(new_fd);
  EXPECT_NE(new_text.find("RELATION readings"), std::string::npos);
  EXPECT_NE(new_text.find("RELATION feed"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, DropPersists) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  QueryServiceOptions options;
  options.data_dir = dir;
  {
    QueryService service(options);
    ASSERT_OK(service.Open());
    ASSERT_OK(service.Execute(kCreate, nullptr).status());
    ASSERT_OK(service.Execute("DROP RELATION readings", nullptr).status());
  }
  {
    QueryService reopened(options);
    ASSERT_OK(reopened.Open());
    EXPECT_TRUE(reopened.RelationNames().empty());
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, MultipleRelationsGetDistinctStorageDirs) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  QueryServiceOptions options;
  options.data_dir = dir;
  {
    QueryService service(options);
    ASSERT_OK(service.Open());
    ASSERT_OK(service.Execute(kCreate, nullptr).status());
    ASSERT_OK(service
                  .Execute(
                      "CREATE EVENT RELATION other (id INT64 KEY, v DOUBLE) "
                      "GRANULARITY 1s",
                      nullptr)
                  .status());
    ASSERT_OK(service
                  .Execute(
                      "INSERT INTO other OBJECT 1 VALUES (1, 1.0) "
                      "VALID AT '1992-02-03 10:00:00'",
                      nullptr)
                  .status());
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/relations/readings"));
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/relations/other"));
  }
  {
    QueryService reopened(options);
    ASSERT_OK(reopened.Open());
    ASSERT_EQ(reopened.RelationNames().size(), 2u);
    ASSERT_OK_AND_ASSIGN(std::string other,
                         reopened.Execute("CURRENT other", nullptr));
    EXPECT_NE(other.find("1 element(s)"), std::string::npos);
    ASSERT_OK_AND_ASSIGN(std::string readings,
                         reopened.Execute("CURRENT readings", nullptr));
    EXPECT_NE(readings.find("0 element(s)"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, ErrorsSurfaceCleanly) {
  QueryService service{QueryServiceOptions{}};
  ASSERT_OK(service.Open());
  EXPECT_FALSE(service.Execute("CURRENT nope", nullptr).ok());
  EXPECT_FALSE(service.Execute("CREATE GARBAGE", nullptr).ok());
  EXPECT_FALSE(service.Execute("DROP RELATION nope", nullptr).ok());
  // Creating the same relation twice fails the second time.
  ASSERT_OK(service.Execute(kCreate, nullptr).status());
  EXPECT_FALSE(service.Execute(kCreate, nullptr).ok());
}

}  // namespace
}  // namespace tempspec
