#include "trace/chrome_export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/mini_json.hpp"

namespace hcs::trace {
namespace {

using testsupport::JsonParser;
using testsupport::JsonValue;

TEST(JsonEscape, HandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

JsonValue export_and_parse(const Tracer& tracer) {
  std::ostringstream os;
  write_chrome_trace(os, tracer);
  return JsonParser::parse(os.str());
}

TEST(ChromeExport, EmptyTracerStillParsesWithProcessMetadata) {
  const Tracer tracer;
  const JsonValue doc = export_and_parse(tracer);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);  // just the process_name metadata
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
}

TEST(ChromeExport, EmitsSchemaValidCompleteAndInstantEvents) {
  Tracer tracer;
  tracer.record_complete(0, Category::kSync, "fit", 1e-3, 2e-3, 123);
  tracer.record_complete(2, Category::kNet, "send", 2e-3, 0.5e-3);
  tracer.record_instant(0, Category::kSync, "resync", 7);
  const JsonValue doc = export_and_parse(tracer);
  const auto& events = doc.at("traceEvents").as_array();

  std::size_t n_meta = 0, n_complete = 0, n_instant = 0;
  for (const JsonValue& ev : events) {
    const std::string ph = ev.at("ph").as_string();
    ASSERT_TRUE(ev.has("name"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
    if (ph == "M") {
      ++n_meta;
      continue;
    }
    ASSERT_TRUE(ev.at("ts").is_number());
    ASSERT_TRUE(ev.has("args"));
    EXPECT_TRUE(ev.at("args").at("time_source").is_string());
    if (ph == "X") {
      ++n_complete;
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    } else if (ph == "i") {
      ++n_instant;
      EXPECT_EQ(ev.at("s").as_string(), "t");  // thread-scoped instant
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  // process_name + thread_name for ranks {0, 2}.
  EXPECT_EQ(n_meta, 3u);
  EXPECT_EQ(n_complete, 2u);
  EXPECT_EQ(n_instant, 1u);

  // Timestamps are microseconds: 1e-3 s -> 1000 us.
  for (const JsonValue& ev : events) {
    if (ev.at("ph").as_string() == "X" && ev.at("name").as_string() == "fit") {
      EXPECT_NEAR(ev.at("ts").as_number(), 1000.0, 1e-9);
      EXPECT_NEAR(ev.at("dur").as_number(), 2000.0, 1e-9);
      EXPECT_EQ(ev.at("tid").as_number(), 0.0);
      EXPECT_EQ(ev.at("args").at("arg").as_number(), 123.0);
      EXPECT_EQ(ev.at("args").at("time_source").as_string(), "sim");
      EXPECT_EQ(ev.at("cat").as_string(), "sync");
    }
  }
}

TEST(ChromeExport, HostileEventNamesSurviveEscaping) {
  Tracer tracer;
  tracer.record_complete(0, Category::kApp, "we\"ird\\name\nwith\tjunk", 0.0, 1.0);
  const JsonValue doc = export_and_parse(tracer);  // parse would throw on bad JSON
  const auto& events = doc.at("traceEvents").as_array();
  bool found = false;
  for (const JsonValue& ev : events) {
    if (ev.at("ph").as_string() == "X") {
      EXPECT_EQ(ev.at("name").as_string(), "we\"ird\\name\nwith\tjunk");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChromeExport, ThreadMetadataNamesEveryRankOnce) {
  Tracer tracer;
  for (const int rank : {3, 1, 3, 1, 0}) {
    tracer.record_instant(rank, Category::kApp, "e");
  }
  const JsonValue doc = export_and_parse(tracer);
  std::vector<double> named_tids;
  for (const JsonValue& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "M" && ev.at("name").as_string() == "thread_name") {
      named_tids.push_back(ev.at("tid").as_number());
      EXPECT_EQ(ev.at("args").at("name").as_string(),
                "rank " + std::to_string(static_cast<int>(ev.at("tid").as_number())));
    }
  }
  EXPECT_EQ(named_tids, (std::vector<double>{0.0, 1.0, 3.0}));
}

}  // namespace
}  // namespace hcs::trace
