// Tests for the one JSON reader (common/json.h) and for hostile input to
// the decoders built on it: the JSONL job feed (workload/feed.h) and the
// JSONL trace reader (obs/trace.h). Every hostile case must end in a typed
// error or a valid result — no crash, no undefined behaviour and no
// allocation sized by an unchecked field — which the ASan + UBSan CI leg
// checks as well.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "workload/feed.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

JsonValue number(const std::string& text) { return parse_json(text); }

// ------------------------------------------------------------------ reader

TEST(JsonReader, ParsesEveryKind) {
  const JsonValue v = parse_json(
      " {\"a\": [1, -2.5e3, true, false, null],\n"
      "  \"s\": \"q\\\"b\\\\n\\n\", \"o\": {}} ");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const std::vector<JsonValue>& a = v.at("a").array();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0].as_u64(), 1u);
  EXPECT_EQ(a[1].text, "-2.5e3");
  EXPECT_EQ(a[1].as_double(), -2500.0);
  EXPECT_TRUE(a[2].boolean);
  EXPECT_EQ(a[3].kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(a[3].boolean);
  EXPECT_EQ(a[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.at("s").string(), "q\"b\\n\n");
  EXPECT_TRUE(v.at("o").members.empty());
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW((void)v.at("absent"), JsonError);
  EXPECT_THROW((void)v.at("a").string(), JsonError);
  EXPECT_THROW((void)v.at("s").array(), JsonError);
  EXPECT_THROW((void)v.at("s").as_double(), JsonError);
}

TEST(JsonReader, MalformedDocumentsCarryTheBytePosition) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "{\"a\":1,}", "[1] 2", "01", "1.",
        ".5", "-", "+1", "1e", "tru", "\"open", "\"\\u0041\"", "infinity",
        "[nan1]", "{1:2}"}) {
    try {
      (void)parse_json(bad);
      FAIL() << "accepted: " << bad;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(JsonReader, NestingIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW((void)parse_json(nested(kMaxJsonDepth + 1)), JsonError);
  // Far past any stack: a typed error, not a stack overflow.
  EXPECT_THROW((void)parse_json(std::string(100000, '[')), JsonError);
  EXPECT_THROW((void)parse_json(std::string(100000, '{')), JsonError);
}

TEST(JsonReader, IntegersAreExactAndRangeChecked) {
  EXPECT_EQ(number("9007199254740993").as_u64(), 9007199254740993ull);
  EXPECT_EQ(number("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)number("18446744073709551616").as_u64(), JsonError);
  EXPECT_THROW((void)number("1e20").as_u64(), JsonError);
  EXPECT_THROW((void)number("-1").as_u64(), JsonError);
  EXPECT_THROW((void)number("1.5").as_u64(), JsonError);
  EXPECT_THROW((void)number("nan").as_u64(), JsonError);
  EXPECT_THROW((void)number("inf").as_u64(), JsonError);
  // Integer fields take integer numerals: a fraction or an exponent would
  // route the value through a double.
  EXPECT_THROW((void)number("3.0").as_u64(), JsonError);
  EXPECT_THROW((void)number("1e3").as_int(), JsonError);
  EXPECT_THROW((void)number("-0").as_u64(), JsonError);
  EXPECT_EQ(number("-0").as_int(), 0);

  EXPECT_EQ(number("-2147483648").as_int(),
            std::numeric_limits<int>::min());
  EXPECT_THROW((void)number("2147483648").as_int(), JsonError);
  EXPECT_THROW((void)number("1e10").as_int(), JsonError);
  EXPECT_THROW((void)number("-1e10").as_int(), JsonError);
}

TEST(JsonReader, DoublesAcceptEveryPrintfSpelling) {
  EXPECT_EQ(number("inf").as_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(number("-inf").as_double(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(number("nan").as_double()));
  EXPECT_TRUE(std::isnan(number("-nan").as_double()));
  EXPECT_EQ(number("4.9406564584124654e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(number("0.10000000000000001").as_double(), 0.1);
  EXPECT_THROW((void)number("1e400").as_double(), JsonError);
}

// -------------------------------------------------------- hostile feeds

std::string feed_line(const std::string& id, const std::string& src) {
  return "{\"id\":" + id + ",\"arrival\":0,\"coflows\":[{\"flows\":[{\"src\":" +
         src + ",\"dst\":1,\"bytes\":10}]}]}\n";
}

std::vector<FeedJob> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_feed(in, "hostile", 16);
}

TEST(FeedHostile, DeepNestingIsAConfigError) {
  try {
    (void)parse(std::string(100000, '[') + "\n");
    FAIL() << "expected throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(FeedHostile, OutOfRangeNumbersAreConfigErrors) {
  EXPECT_THROW((void)parse(feed_line("1e20", "0")), ConfigError);
  EXPECT_THROW((void)parse(feed_line("0", "1e10")), ConfigError);
  EXPECT_THROW((void)parse(feed_line("0", "-1e10")), ConfigError);
  EXPECT_THROW((void)parse(feed_line("-1", "0")), ConfigError);
  EXPECT_THROW((void)parse(feed_line("0.5", "0")), ConfigError);
  EXPECT_THROW((void)parse(feed_line("0", "0.5")), ConfigError);
}

TEST(FeedHostile, IdsAreReadExactly) {
  const std::vector<FeedJob> jobs = parse(feed_line("9007199254740993", "0"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 9007199254740993ull);
}

TEST(FeedHostile, NonFiniteValuesAreConfigErrors) {
  for (const char* v : {"inf", "-inf", "nan", "-nan"}) {
    const std::string bytes = "{\"id\":0,\"arrival\":0,\"coflows\":"
                              "[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":" +
                              std::string(v) + "}]}]}\n";
    EXPECT_THROW((void)parse(bytes), ConfigError) << v;
    const std::string arrival =
        "{\"id\":0,\"arrival\":" + std::string(v) +
        ",\"coflows\":[{\"flows\":[{\"src\":0,\"dst\":1,\"bytes\":1}]}]}\n";
    EXPECT_THROW((void)parse(arrival), ConfigError) << v;
  }
}

/// Runs `decode` on `text` and fails unless it returns or throws
/// `Expected`; any other exception is a decoder fault.
template <typename Expected, typename Decode>
void expect_typed(const std::string& text, Decode decode,
                  const std::string& what) {
  try {
    decode(text);
  } catch (const Expected&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped " << e.what();
  }
}

/// Every prefix of `text`, and `text` with each byte replaced by each of a
/// few structure- and number-breaking bytes.
template <typename Expected, typename Decode>
void mutate_all(const std::string& text, Decode decode) {
  for (std::size_t cut = 0; cut < text.size(); ++cut)
    expect_typed<Expected>(text.substr(0, cut), decode,
                           "cut at " + std::to_string(cut));
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const char b : {'[', '{', '"', '\\', '9', '-', 'e', '\0', '\xff'}) {
      std::string flipped = text;
      flipped[at] = b;
      expect_typed<Expected>(flipped, decode,
                             "byte " + std::to_string(at) + " -> " +
                                 std::to_string(static_cast<unsigned char>(b)));
    }
  }
}

TEST(FeedHostile, TruncationsAndByteFlipsGiveTypedErrors) {
  TraceConfig config;
  config.num_jobs = 2;
  config.num_hosts = 16;
  config.max_width = 2;
  config.seed = 3;
  const std::vector<JobSpec> specs = generate_trace(config);
  std::vector<FeedJob> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) jobs.push_back({i, specs[i]});
  jobs[1].spec.deadline = jobs[1].spec.arrival_time + 1.0;
  ASSERT_FALSE(jobs[0].spec.deps.back().empty() &&
               jobs[1].spec.deps.back().empty())
      << "the sweep should cover a dependency list";
  std::ostringstream out;
  write_feed(out, jobs);
  ASSERT_EQ(parse(out.str()).size(), jobs.size());
  // Per line, so the quadratic sweep stays small.
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line))
    mutate_all<ConfigError>(line,
                            [](const std::string& t) { (void)parse(t); });
}

// ------------------------------------------------------- hostile traces

std::vector<obs::TraceSection> read_trace(const std::string& text) {
  std::istringstream in(text);
  return obs::read_jsonl(in);
}

TEST(TraceJsonlHostile, OutOfRangeNumbersAreJsonErrors) {
  EXPECT_THROW((void)read_trace(R"({"t":1,"kind":"job_finish","job":1e20})"),
               JsonError);
  EXPECT_THROW(
      (void)read_trace(R"({"t":1,"kind":"job_arrival","job":1,"stages":1e10})"),
      JsonError);
  EXPECT_THROW(
      (void)read_trace(R"({"t":1,"kind":"job_arrival","job":-1,"stages":1})"),
      JsonError);
  EXPECT_THROW((void)read_trace(R"({"t":"x","kind":"job_finish"})"),
               JsonError);
  EXPECT_THROW((void)read_trace(std::string(100000, '[')), JsonError);
  const auto sections = read_trace(
      R"({"t":1,"kind":"job_finish","job":18446744073709551614})");
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].records[0].job, 18446744073709551614ull);
}

TEST(TraceJsonlHostile, ErrorsNameTheLine) {
  try {
    (void)read_trace("{\"t\":1,\"kind\":\"job_finish\"}\n\nnot json\n");
    FAIL() << "expected throw";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceJsonlHostile, TruncationsAndByteFlipsGiveTypedErrors) {
  // One record of every kind, every slot set, written as a run would.
  std::vector<obs::TraceRecord> records;
  for (int k = 0; k < obs::kNumTraceEventKinds; ++k) {
    obs::TraceRecord r;
    r.kind = static_cast<obs::TraceEventKind>(k);
    r.time = 0.125 * k;
    r.job = static_cast<std::uint64_t>(k);
    r.coflow = static_cast<std::uint64_t>(10 + k);
    r.flow = static_cast<std::uint64_t>(100 + k);
    r.v0 = 1e9;
    r.v1 = -0.5;
    r.v2 = std::numeric_limits<double>::infinity();
    r.v3 = 3;
    r.v4 = 0.1;
    r.v5 = 7e-3;
    r.i0 = 2;
    r.i1 = -1;
    r.i2 = 5;
    records.push_back(r);
  }
  std::ostringstream out;
  obs::write_jsonl(out, records, "run/gurita");
  ASSERT_EQ(read_trace(out.str())[0].records.size(), records.size());
  // Per line, so the quadratic sweep stays small.
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line))
    mutate_all<JsonError>(line,
                          [](const std::string& t) { (void)read_trace(t); });
}

}  // namespace
}  // namespace gurita
