// Labeled latency family: bounded label interning, series eviction on
// relation drop, overflow collapse, and the labeled Prometheus rendering.
// The guard this suite exists for: create/drop churn over a process
// lifetime must never grow the label table or the /metrics scrape beyond
// the live-relation count.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tempspec {
namespace {

TEST(LabelDimTest, InternReleaseRecyclesIds) {
  LabelDim dim(/*capacity=*/2);
  const uint32_t a = dim.Intern("alpha");
  const uint32_t b = dim.Intern("beta");
  EXPECT_NE(a, LabelDim::kOverflowId);
  EXPECT_NE(b, LabelDim::kOverflowId);
  EXPECT_NE(a, b);
  EXPECT_EQ(dim.Intern("alpha"), a);  // idempotent
  EXPECT_EQ(dim.LiveCount(), 2u);

  // Full table: a third value collapses into the overflow bucket.
  EXPECT_EQ(dim.Intern("gamma"), LabelDim::kOverflowId);
  EXPECT_EQ(dim.ValueOf(LabelDim::kOverflowId), "other");

  // Releasing frees the slot for the next value — bounded forever.
  dim.Release("alpha");
  EXPECT_EQ(dim.LiveCount(), 1u);
  const uint32_t c = dim.Intern("gamma");
  EXPECT_NE(c, LabelDim::kOverflowId);
  EXPECT_EQ(dim.ValueOf(c), "gamma");
  // The recycled id no longer resolves to the released value.
  EXPECT_EQ(dim.ValueOf(a), a == c ? "gamma" : "other");
}

TEST(LabelDimTest, ReleaseOfUnknownValueIsANoOp) {
  LabelDim dim(/*capacity=*/2);
  dim.Intern("alpha");
  dim.Release("never_interned");
  dim.Release("other");
  EXPECT_EQ(dim.LiveCount(), 1u);
}

class QueryLatencyFamilyTest : public ::testing::Test {
 protected:
  void SetUp() override { QueryLatencyFamily::Instance().Reset(); }
  void TearDown() override { QueryLatencyFamily::Instance().Reset(); }
};

TEST_F(QueryLatencyFamilyTest, ScrapeIsSortedAndCarriesObservations) {
  auto& family = QueryLatencyFamily::Instance();
  family.Observe("ledger", "banded_columnar", "http", 120);
  family.Observe("assignments", "insert", "tsp1", 40);
  family.Observe("ledger", "banded_columnar", "http", 900);

  const std::vector<LabeledSeries> series = family.Scrape();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].relation, "assignments");
  EXPECT_EQ(series[1].relation, "ledger");
  EXPECT_EQ(series[1].kind, "banded_columnar");
  EXPECT_EQ(series[1].protocol, "http");
  EXPECT_EQ(series[1].latency.count, 2u);
  EXPECT_EQ(series[1].latency.sum, 1020u);
}

TEST_F(QueryLatencyFamilyTest, CreateDropChurnStaysBounded) {
  auto& family = QueryLatencyFamily::Instance();
  // Ten process lifetimes' worth of create/observe/drop churn: the label
  // table and series map must track only what is live, never what ever
  // existed.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string rel =
          "churn_" + std::to_string(round) + "_" + std::to_string(i);
      family.Observe(rel, "insert", "http", 10);
      family.Observe(rel, "generic_columnar", "http", 25);
      EXPECT_LE(family.LiveRelationLabels(),
                QueryLatencyFamily::kRelationCapacity);
      family.ReleaseRelation(rel);
    }
  }
  EXPECT_EQ(family.LiveRelationLabels(), 0u);
  EXPECT_EQ(family.SeriesCount(), 0u);
  EXPECT_TRUE(family.Scrape().empty());
}

TEST_F(QueryLatencyFamilyTest, OverflowCollapsesIntoOtherSeries) {
  auto& family = QueryLatencyFamily::Instance();
  const size_t beyond = QueryLatencyFamily::kRelationCapacity + 16;
  for (size_t i = 0; i < beyond; ++i) {
    family.Observe("rel_" + std::to_string(i), "insert", "http", 5);
  }
  // Live labels are capped; the spill shares one "other" series, so the
  // scrape stays O(capacity) no matter how many relations exist.
  EXPECT_EQ(family.LiveRelationLabels(), QueryLatencyFamily::kRelationCapacity);
  uint64_t other_count = 0;
  size_t named = 0;
  for (const LabeledSeries& s : family.Scrape()) {
    if (s.relation == "other") {
      other_count += s.latency.count;
    } else {
      ++named;
    }
  }
  EXPECT_EQ(named, QueryLatencyFamily::kRelationCapacity);
  EXPECT_EQ(other_count, beyond - QueryLatencyFamily::kRelationCapacity);
}

TEST_F(QueryLatencyFamilyTest, LabeledPrometheusRenderingIsWellFormed) {
  auto& family = QueryLatencyFamily::Instance();
  family.Observe("ledger", "row_at_a_time", "http", 100);
  family.Observe("ledger", "row_at_a_time", "http", 100000);
  family.Observe("orders", "insert", "tsp1", 7);

  const std::string text = RenderLabeledPrometheusText(family.Scrape());
  EXPECT_NE(text.find("# TYPE tempspec_query_latency histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("tempspec_query_latency_bucket{relation=\"ledger\","
                "kind=\"row_at_a_time\",protocol=\"http\","),
      std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("tempspec_query_latency_count{relation=\"orders\","
                      "kind=\"insert\",protocol=\"tsp1\"} 1"),
            std::string::npos);

  // Cumulative buckets are monotone within each series.
  std::istringstream lines(text);
  std::string line;
  std::string current_series;
  long long prev = -1;
  while (std::getline(lines, line)) {
    const size_t bucket = line.find("_bucket{");
    if (bucket == std::string::npos) continue;
    const size_t le = line.find(",le=\"");
    ASSERT_NE(le, std::string::npos) << line;
    const std::string series_key = line.substr(0, le);
    if (series_key != current_series) {
      current_series = series_key;
      prev = -1;
    }
    const long long value = std::atoll(line.substr(line.rfind(' ')).c_str());
    EXPECT_GE(value, prev) << line;
    prev = value;
  }
}

TEST(LabeledRenderingTest, EmptyFamilyRendersNothing) {
  EXPECT_EQ(RenderLabeledPrometheusText({}), "");
}

TEST(LabeledRenderingTest, LabelValuesAreEscaped) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace tempspec
