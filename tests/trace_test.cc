// Unit tests for the span tracer (common/trace): null-tracer no-ops, span
// nesting / timestamp containment, ring-buffer eviction accounting, and
// Chrome trace-event JSON structure.

#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "tools/json_util.h"

namespace dynamast::trace {
namespace {

TEST(TraceTest, NullTracerIsANoop) {
  Span span(nullptr, "work", "test", 0, 1);
  span.SetTxn(1, 2);
  span.AddNum("x", 3.0);
  span.End();  // must not crash; nothing to record into
}

TEST(TraceTest, SpanNestingTimestampsContain) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer", "test", 0, 7);
    outer.SetTxn(7, 1);
    {
      Span inner(&tracer, "inner", "test", 0, 7);
      inner.AddNum("ops", 3);
    }  // inner ends first
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Ring order is record order: inner ended (and was recorded) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  // Containment: outer started no later and ended no earlier than inner.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
  EXPECT_EQ(outer.pid, 0u);
  EXPECT_EQ(outer.tid, 7u);
  // Correlation arg format is the cross-site join key.
  bool found_txn = false;
  for (const auto& [k, v] : outer.args) {
    if (k == "txn") {
      EXPECT_EQ(v, "c7.t1");
      found_txn = true;
    }
  }
  EXPECT_TRUE(found_txn);
}

TEST(TraceTest, EndIsIdempotent) {
  Tracer tracer;
  {
    Span span(&tracer, "once", "test", 0, 0);
    span.End();
    span.End();  // explicit double-End plus destructor: one event
  }
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TraceTest, RingEvictsOldestAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "s" + std::to_string(i), "test", 0, 0);
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first snapshot of the survivors: s6..s9.
  EXPECT_EQ(events[0].name, "s6");
  EXPECT_EQ(events[3].name, "s9");
}

TEST(TraceTest, BusyCategoryDoesNotEvictARareOne) {
  Tracer tracer(/*capacity=*/4);
  { Span span(&tracer, "release", "remaster", 0, 0); }
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "s" + std::to_string(i), "txn", 0, 0);
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Merged oldest-first across the rings: the release, then s6..s9.
  EXPECT_EQ(events[0].name, "release");
  EXPECT_EQ(events[1].name, "s6");
  EXPECT_EQ(events[4].name, "s9");
}

TEST(TraceTest, ChromeJsonIsValidAndCarriesProcessNames) {
  Tracer tracer;
  tracer.SetProcessName(0, "site0");
  tracer.SetProcessName(2, "selector");
  {
    Span span(&tracer, "route", "txn", 2, 11);
    span.AddNum("winner", 1);
  }
  tools::JsonValue doc;
  ASSERT_TRUE(tools::ParseJson(tracer.ToChromeJson(), &doc).ok());
  const tools::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t meta = 0, spans = 0;
  for (const tools::JsonValue& e : events->array) {
    const std::string ph = e.GetString("ph");
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.GetString("name"), "process_name");
    } else {
      ++spans;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(e.GetString("name"), "route");
      EXPECT_EQ(e.GetUint64("pid"), 2u);
      EXPECT_EQ(e.GetUint64("tid"), 11u);
      const tools::JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetString("winner"), "1");
    }
  }
  EXPECT_EQ(meta, 2u);
  EXPECT_EQ(spans, 1u);
}

TEST(TraceTest, PidOffsetShiftsLanes) {
  TraceEvent event;
  event.name = "x";
  event.cat = "test";
  event.pid = 3;
  tools::JsonValue doc;
  ASSERT_TRUE(tools::ParseJson(event.ToJson(/*pid_offset=*/100), &doc).ok());
  EXPECT_EQ(doc.GetUint64("pid"), 103u);
}

}  // namespace
}  // namespace dynamast::trace
