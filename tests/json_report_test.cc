// Tests for core/json_report.h: JsonValue build/serialize/parse
// round-trips, string escaping, NaN/Inf handling, and the versioned
// BenchReport schema.

#include "core/json_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace airindex {
namespace {

TEST(JsonValueTest, SerializeScalars) {
  EXPECT_EQ(JsonValue().Serialize(), "null");
  EXPECT_EQ(JsonValue(true).Serialize(), "true");
  EXPECT_EQ(JsonValue(false).Serialize(), "false");
  EXPECT_EQ(JsonValue(std::int64_t{42}).Serialize(), "42");
  EXPECT_EQ(JsonValue(std::int64_t{-7}).Serialize(), "-7");
  EXPECT_EQ(JsonValue(1.5).Serialize(), "1.5");
  EXPECT_EQ(JsonValue("hi").Serialize(), "\"hi\"");
}

TEST(JsonValueTest, IntegersSerializeWithoutDecimalPoint) {
  const JsonValue big(std::int64_t{9007199254740993});  // > 2^53
  EXPECT_EQ(big.Serialize(), "9007199254740993");
  EXPECT_EQ(big.int_value(), 9007199254740993);
}

TEST(JsonValueTest, NanAndInfSerializeAsNull) {
  EXPECT_EQ(JsonValue(std::nan("")).Serialize(), "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Serialize(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).Serialize(),
            "null");
}

TEST(JsonValueTest, StringEscaping) {
  const JsonValue value(std::string("a\"b\\c\n\t\r\b\f\x01z"));
  EXPECT_EQ(value.Serialize(),
            "\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001z\"");
  // And the escaped form parses back to the original bytes.
  Result<JsonValue> parsed = JsonValue::Parse(value.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().string_value(), "a\"b\\c\n\t\r\b\f\x01z");
}

TEST(JsonValueTest, ObjectsKeepInsertionOrder) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("zebra", JsonValue(1));
  object.Set("alpha", JsonValue(2));
  object.Set("zebra", JsonValue(3));  // replace keeps the slot
  EXPECT_EQ(object.Serialize(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(JsonValueTest, PrettyPrint) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("a", JsonValue(1));
  JsonValue array = JsonValue::MakeArray();
  array.Append(JsonValue(2));
  object.Set("b", std::move(array));
  EXPECT_EQ(object.Serialize(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonValueTest, ParseRoundTrip) {
  const std::string text =
      "{\"s\":\"x\",\"n\":1.25,\"i\":-3,\"b\":true,\"z\":null,"
      "\"arr\":[1,2,{\"k\":\"v\"}],\"empty_obj\":{},\"empty_arr\":[]}";
  Result<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Compact serialization reproduces the input byte for byte.
  EXPECT_EQ(parsed.value().Serialize(), text);
  const JsonValue* n = parsed.value().Find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(n->number_value(), 1.25);
  const JsonValue* i = parsed.value().Find("i");
  ASSERT_NE(i, nullptr);
  EXPECT_TRUE(i->is_exact_int());
  EXPECT_EQ(i->int_value(), -3);
}

TEST(JsonValueTest, ParseUnicodeEscapes) {
  Result<JsonValue> parsed = JsonValue::Parse("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().string_value(), "A\xc3\xa9\xe2\x82\xac");

  // Surrogate pair: U+1F600.
  Result<JsonValue> emoji = JsonValue::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(emoji.ok()) << emoji.status().ToString();
  EXPECT_EQ(emoji.value().string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonValueTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\q\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"").ok());  // lone surrogate
}

BenchReport MakeReport() {
  BenchReport report;
  report.bench = "unit_test_bench";
  report.config = {{"quick", "true"}, {"num_records", "500"}};
  BenchPoint point;
  point.labels = {{"records", "500"}, {"scheme", "flat"}};
  point.metrics = {
      {"access_bytes", BenchMetricValue{125000.5, 320.25, false}},
      {"setup_ns", BenchMetricValue{9876.0, 0.0, true}},
  };
  point.replications = 40;
  point.requests = 20000;
  point.converged = true;
  report.points.push_back(point);
  report.counters.Increment("sim.events_processed", 12345);
  report.counters.Increment("client.buckets_listened", 678);
  report.timing.jobs = 4;
  report.timing.replications_run = 44;
  report.timing.replications_merged = 40;
  report.timing.replications_discarded = 4;
  report.timing.reorder_buffer_peak = 3;
  report.timing.wall_seconds = 1.25;
  report.timing.busy_seconds = 4.5;
  report.timing.idle_seconds = 0.5;
  report.timing.setup_seconds = 0.375;
  return report;
}

TEST(BenchReportTest, JsonRoundTrip) {
  const BenchReport report = MakeReport();
  const JsonValue json = BenchReportToJson(report);

  Result<BenchReport> parsed = BenchReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const BenchReport& back = parsed.value();
  EXPECT_EQ(back.bench, report.bench);
  EXPECT_EQ(back.config, report.config);
  ASSERT_EQ(back.points.size(), 1u);
  EXPECT_EQ(back.points[0].labels, report.points[0].labels);
  ASSERT_EQ(back.points[0].metrics.size(), 2u);
  EXPECT_EQ(back.points[0].metrics[0].first, "access_bytes");
  EXPECT_DOUBLE_EQ(back.points[0].metrics[0].second.mean, 125000.5);
  EXPECT_DOUBLE_EQ(back.points[0].metrics[0].second.ci_half_width, 320.25);
  EXPECT_FALSE(back.points[0].metrics[0].second.walltime);
  EXPECT_TRUE(back.points[0].metrics[1].second.walltime);
  EXPECT_EQ(back.points[0].replications, 40);
  EXPECT_EQ(back.points[0].requests, 20000);
  EXPECT_TRUE(back.points[0].converged);
  EXPECT_TRUE(back.counters == report.counters);
  EXPECT_EQ(back.timing.jobs, 4);
  EXPECT_EQ(back.timing.replications_discarded, 4);
  EXPECT_EQ(back.timing.reorder_buffer_peak, 3);
  EXPECT_DOUBLE_EQ(back.timing.wall_seconds, 1.25);
  EXPECT_DOUBLE_EQ(back.timing.idle_seconds, 0.5);
  EXPECT_DOUBLE_EQ(back.timing.setup_seconds, 0.375);

  // Serialize → parse → serialize is byte-identical (stable baselines).
  const std::string once = json.Serialize(2);
  Result<JsonValue> reparsed = JsonValue::Parse(once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().Serialize(2), once);
}

TEST(BenchReportTest, SetupSecondsDefaultsToZeroWhenAbsent) {
  // Reports written before the key existed, such as the committed
  // baselines, still load.
  JsonValue json = BenchReportToJson(MakeReport());
  JsonValue timing = JsonValue::MakeObject();
  for (const auto& [key, value] : json.Find("timing")->members()) {
    if (key != "setup_seconds") timing.Set(key, value);
  }
  json.Set("timing", std::move(timing));
  Result<BenchReport> parsed = BenchReportFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().timing.setup_seconds, 0.0);
  EXPECT_DOUBLE_EQ(parsed.value().timing.wall_seconds, 1.25);
}

TEST(BenchReportTest, RejectsWrongSchemaVersion) {
  JsonValue json = BenchReportToJson(MakeReport());
  json.Set("schema_version", JsonValue(999));
  EXPECT_FALSE(BenchReportFromJson(json).ok());
}

TEST(BenchReportTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(BenchReportFromJson(JsonValue(1.0)).ok());
  JsonValue no_bench = JsonValue::MakeObject();
  no_bench.Set("schema_version", JsonValue(kBenchReportSchemaVersion));
  EXPECT_FALSE(BenchReportFromJson(no_bench).ok());

  JsonValue bad_kind = BenchReportToJson(MakeReport());
  // Corrupt the first metric's kind string.
  EXPECT_FALSE(
      BenchReportFromJson(JsonValue::Parse(
                              [&] {
                                std::string text = bad_kind.Serialize();
                                const std::string needle = "\"simulated\"";
                                text.replace(text.find(needle),
                                             needle.size(), "\"bogus\"");
                                return text;
                              }())
                              .value())
          .ok());
}

TEST(BenchReportTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bench_report_test.json";
  const JsonValue json = BenchReportToJson(MakeReport());
  ASSERT_TRUE(WriteJsonFile(path, json).ok());

  Result<JsonValue> read = ReadJsonFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().Serialize(2), json.Serialize(2));

  // The file ends with exactly one trailing newline.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  EXPECT_NE(contents[contents.size() - 2], '\n');
  std::remove(path.c_str());

  EXPECT_FALSE(ReadJsonFile("/nonexistent/definitely/missing.json").ok());
}

}  // namespace
}  // namespace airindex
