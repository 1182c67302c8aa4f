// Unit tests for TraceContext: span lifecycle, counters/attrs, stage scopes
// (including null-context safety), and the single-line JSON rendering that
// EXPLAIN ANALYZE returns verbatim.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "testing.h"
#include "testing_json.h"

namespace tempspec {
namespace {

TEST(TraceTest, SpanLifecycle) {
  TraceContext ctx;
  EXPECT_FALSE(ctx.started());
  ctx.Begin("query.timeslice");
  EXPECT_TRUE(ctx.started());
  EXPECT_EQ(ctx.name(), "query.timeslice");
  ctx.End();
  const uint64_t wall = ctx.wall_micros();
  ctx.End();  // idempotent: a second End must not extend the span
  EXPECT_EQ(ctx.wall_micros(), wall);
}

TEST(TraceTest, CountersAccumulateAndAttrsLastWriteWins) {
  TraceContext ctx;
  ctx.Begin("span");
  ctx.AddCounter("elements_examined", 10);
  ctx.AddCounter("elements_examined", 5);
  ctx.AddCounter("results", 3);
  EXPECT_EQ(ctx.counter("elements_examined"), 15u);
  EXPECT_EQ(ctx.counter("results"), 3u);
  EXPECT_EQ(ctx.counter("absent"), 0u);
  ctx.SetAttr("strategy", "full_scan");
  ctx.SetAttr("strategy", "valid_index");
  EXPECT_EQ(ctx.attr("strategy"), "valid_index");
  EXPECT_EQ(ctx.attr("absent"), "");
}

TEST(TraceTest, StageScopesRecordInOrder) {
  TraceContext ctx;
  ctx.Begin("span");
  {
    TraceContext::StageScope plan(&ctx, "plan");
  }
  {
    TraceContext::StageScope scan(&ctx, "scan");
  }
  ctx.AddStage("manual", 123);
  ASSERT_EQ(ctx.stages().size(), 3u);
  EXPECT_EQ(ctx.stages()[0].name, "plan");
  EXPECT_EQ(ctx.stages()[1].name, "scan");
  EXPECT_EQ(ctx.stages()[2].name, "manual");
  EXPECT_EQ(ctx.stages()[2].micros, 123u);
}

TEST(TraceTest, NullContextStageScopeIsNoop) {
  // The executor passes nullptr when no trace is attached; the scope must be
  // inert, not crash.
  TraceContext::StageScope scope(nullptr, "scan");
}

TEST(TraceTest, ToJsonShape) {
  TraceContext ctx;
  ctx.Begin("query.rollback");
  ctx.SetAttr("strategy", "full_scan");
  ctx.AddCounter("results", 7);
  ctx.AddStage("scan", 42);
  const std::string json = ctx.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos) << "single line";
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"span\":\"query.rollback\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_micros\":"), std::string::npos);
  EXPECT_NE(json.find("\"attrs\":{\"strategy\":\"full_scan\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"results\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":[{\"name\":\"scan\",\"micros\":42}]"),
            std::string::npos);
  // ToJson finalizes a still-open span so the wall time is meaningful.
  EXPECT_GE(ctx.wall_micros(), 0u);
}

TEST(TraceTest, ToJsonRoundTripsHostileNamesAndValues) {
  // Span names, attr keys/values, and stage names all pass through
  // JsonEscape; anything the engine can put in them must survive a parse.
  const std::string nasty =
      "we\"ird\\span\twith\nnewline caf\xC3\xA9 \x01\x1f end";
  TraceContext ctx;
  ctx.Begin(nasty);
  ctx.SetAttr(nasty, nasty);
  ctx.AddCounter("results", 7);
  ctx.AddStage(nasty, 42);
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       testing::JsonParser::Parse(ctx.ToJson()));
  EXPECT_EQ(v.at("span").string, nasty);
  EXPECT_EQ(v.at("attrs").at(nasty).string, nasty);
  EXPECT_EQ(v.at("counters").at("results").number, "7");
  ASSERT_EQ(v.at("stages").array.size(), 1u);
  EXPECT_EQ(v.at("stages").array[0].at("name").string, nasty);
}

TEST(TraceTest, TraceIdsAreProcessUniqueAndNonzero) {
  TraceContext a;
  TraceContext b;
  EXPECT_EQ(a.trace_id(), 0u) << "unassigned before Begin";
  a.Begin("one");
  b.Begin("two");
  EXPECT_NE(a.trace_id(), 0u);
  EXPECT_NE(b.trace_id(), 0u);
  EXPECT_NE(a.trace_id(), b.trace_id());
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       testing::JsonParser::Parse(a.ToJson()));
  EXPECT_EQ(v.at("trace_id").number, std::to_string(a.trace_id()))
      << "the id rides in the span JSON so slowlog entries can join to it";
}

TEST(RetainedTracesTest, RetainsCompletedSpans) {
  RetainedTraces ring(4, 1);
  TraceContext span;
  span.Begin("background.vacuum");
  span.AddCounter("elements_dropped", 3);
  ring.Record(span);  // Record ends a still-open span

  TraceContext never_started;
  ring.Record(never_started);  // no Begin: must be ignored, not retained

  const std::vector<RetainedTrace> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].span, "background.vacuum");
  EXPECT_EQ(entries[0].trace_id, span.trace_id());
  EXPECT_GT(entries[0].unix_micros, 0u);
  ASSERT_OK_AND_ASSIGN(testing::JsonValue v,
                       testing::JsonParser::Parse(entries[0].json));
  EXPECT_EQ(v.at("span").string, "background.vacuum");
  EXPECT_EQ(v.at("counters").at("elements_dropped").number, "3");
  EXPECT_EQ(ring.TotalSeen(), 1u);
  EXPECT_EQ(ring.TotalRetained(), 1u);
}

TEST(RetainedTracesTest, CapacityEvictsOldest) {
  RetainedTraces ring(2, 1);
  for (const char* name : {"a", "b", "c"}) {
    TraceContext span;
    span.Begin(name);
    ring.Record(span);
  }
  std::vector<RetainedTrace> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].span, "b");
  EXPECT_EQ(entries[1].span, "c");

  ring.SetCapacity(1);  // shrinking drops the oldest resident span
  entries = ring.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].span, "c");
}

TEST(RetainedTracesTest, FullRingKeepsTheNewestOldestFirst) {
  // Every span past capacity evicts exactly the oldest one, however many
  // times the ring wraps; the totals still count every span.
  RetainedTraces ring(3, 1);
  for (int i = 0; i < 10; ++i) {
    TraceContext span;
    span.Begin("s" + std::to_string(i));
    ring.Record(span);
  }
  const std::vector<RetainedTrace> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].span, "s7");
  EXPECT_EQ(entries[1].span, "s8");
  EXPECT_EQ(entries[2].span, "s9");
  EXPECT_EQ(ring.TotalSeen(), 10u);
  EXPECT_EQ(ring.TotalRetained(), 10u);
}

TEST(RetainedTracesTest, SamplerKeepsOneOfEveryN) {
  RetainedTraces ring(8, 2);
  for (int i = 0; i < 4; ++i) {
    TraceContext span;
    span.Begin("s" + std::to_string(i));
    ring.Record(span);
  }
  const std::vector<RetainedTrace> entries = ring.Entries();
  ASSERT_EQ(entries.size(), 2u) << "1 of every 2 spans retained";
  EXPECT_EQ(entries[0].span, "s0");
  EXPECT_EQ(entries[1].span, "s2");
  EXPECT_EQ(ring.TotalSeen(), 4u);
  EXPECT_EQ(ring.TotalRetained(), 2u);

  ring.SetSampleEvery(0);  // 0 disables retention entirely
  TraceContext span;
  span.Begin("dropped");
  ring.Record(span);
  EXPECT_EQ(ring.TotalSeen(), 5u);
  EXPECT_EQ(ring.Entries().size(), 2u);
}

TEST(RetainedTracesTest, ClearResetsRingAndSampler) {
  RetainedTraces ring(8, 2);
  for (int i = 0; i < 3; ++i) {
    TraceContext span;
    span.Begin("x");
    ring.Record(span);
  }
  ring.Clear();
  EXPECT_EQ(ring.Entries().size(), 0u);
  EXPECT_EQ(ring.TotalSeen(), 0u);
  EXPECT_EQ(ring.TotalRetained(), 0u);
  // The sampler phase restarts: the next span is the "first" again.
  TraceContext span;
  span.Begin("fresh");
  ring.Record(span);
  ASSERT_EQ(ring.Entries().size(), 1u);
  EXPECT_EQ(ring.Entries()[0].span, "fresh");
}

}  // namespace
}  // namespace tempspec
