// CSV and warehouse import/export tests: RFC-4180 corner cases, dimension
// rollup tables (the paper's Table 2 layout), mixed-granularity fact round
// trips, specification files, and CRC-32 known answers.

#include "io/warehouse_io.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "io/atomic_file.h"
#include "io/csv.h"
#include "mdm/paper_example.h"
#include "paper_actions.h"
#include "reduce/semantics.h"
#include "spec/parser.h"

namespace dwred {
namespace {

/// Bit-at-a-time CRC-32 over the reflected IEEE polynomial: the definition
/// the table-driven Crc32 must agree with, seed chaining included.
uint32_t BitwiseCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("", 0xCBF43926u), 0xCBF43926u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
  EXPECT_EQ(Crc32(std::string(32, '\0')), 0x190A55ADu);
  EXPECT_EQ(Crc32(std::string(32, '\xff')), 0xFF6CAB0Bu);
}

TEST(Crc32Test, SeededChainingEqualsOneCall) {
  std::string bytes;
  for (int i = 0; i < 200; ++i) bytes.push_back(static_cast<char>(i * 37 + 11));
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::string_view all(bytes);
    EXPECT_EQ(Crc32(all.substr(cut), Crc32(all.substr(0, cut))), Crc32(all))
        << "cut at " << cut;
  }
}

TEST(Crc32Test, EveryLengthAndAlignmentMatchesTheBitwiseDefinition) {
  // 64 + 8 bytes covering every byte value's low bits at every offset.
  std::string buf;
  for (int i = 0; i < 72; ++i) buf.push_back(static_cast<char>(i * 89 + 5));
  buf[13] = '\xff';
  buf[40] = '\0';
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 64; ++len) {
      std::string_view s = std::string_view(buf).substr(off, len);
      EXPECT_EQ(Crc32(s), BitwiseCrc32(s)) << "offset " << off << " len " << len;
      EXPECT_EQ(Crc32(s, 0x12345678u), BitwiseCrc32(s, 0x12345678u))
          << "seeded, offset " << off << " len " << len;
    }
  }
  // Eight copies of byte b index entry ~b of the four tables the first word
  // folds and entry b of the other four, and one b alone indexes the byte
  // table: over all b, every entry of every table is read.
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string eight(8, static_cast<char>(b));
    EXPECT_EQ(Crc32(one), BitwiseCrc32(one)) << "byte " << b;
    EXPECT_EQ(Crc32(eight), BitwiseCrc32(eight)) << "8 x byte " << b;
  }
}

TEST(CsvTest, BasicRows) {
  auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][2], "3");
}

TEST(CsvTest, QuotingAndEscapes) {
  auto rows = ParseCsv("\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0], "a,b");
  EXPECT_EQ(rows.value()[0][1], "say \"hi\"");
  EXPECT_EQ(rows.value()[0][2], "line\nbreak");
}

TEST(CsvTest, CrlfAndMissingFinalNewline) {
  auto rows = ParseCsv("a,b\r\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][1], "d");
}

TEST(CsvTest, Malformed) {
  EXPECT_FALSE(ParseCsv("a,\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\"c\n").ok());
}

TEST(CsvTest, RoundTrip) {
  std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with\"quote"},
      {"", "x", "multi\nline"},
  };
  auto back = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), rows);
}

TEST(WarehouseIoTest, DimensionCsvRoundTrip) {
  const char* csv =
      "url,domain,domain_grp\n"
      "www.cc.gatech.edu,gatech.edu,.edu\n"
      "www.cnn.com,cnn.com,.com\n"
      "www.cnn.com/health,cnn.com,.com\n"
      "www.amazon.com/ex...,amazon.com,.com\n";
  auto dim = ReadDimensionCsv("URL", csv);
  ASSERT_TRUE(dim.ok()) << dim.status().ToString();
  const Dimension& d = dim.value();
  EXPECT_EQ(d.type().num_categories(), 4u);  // + TOP
  EXPECT_EQ(d.num_values(), 1 + 4 + 3 + 2);  // T + urls + domains + groups
  auto url_cat = d.type().CategoryByName("url").take();
  auto grp_cat = d.type().CategoryByName("domain_grp").take();
  ValueId health = d.ValueByName(url_cat, "www.cnn.com/health").take();
  EXPECT_EQ(d.value_name(d.Rollup(health, grp_cat)), ".com");

  auto out = WriteDimensionCsv(d);
  ASSERT_TRUE(out.ok());
  auto reparsed = ReadDimensionCsv("URL", out.value());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().num_values(), d.num_values());
}

TEST(WarehouseIoTest, InconsistentRollupRejected) {
  const char* csv =
      "url,domain\n"
      "a,x.com\n"
      "a,y.com\n";  // same url under two domains
  auto dim = ReadDimensionCsv("URL", csv);
  ASSERT_FALSE(dim.ok());
  EXPECT_NE(dim.status().message().find("inconsistently"), std::string::npos);
}

TEST(WarehouseIoTest, TimeDimensionCsvExportRejected) {
  Dimension time = Dimension::MakeTimeDimension();
  EXPECT_FALSE(WriteDimensionCsv(time).ok());  // non-linear
}

TEST(WarehouseIoTest, FactCsvRoundTripMixedGranularity) {
  // Reduce the paper example, export, import into a fresh MO over the same
  // dimensions, compare.
  IspExample ex = MakeIspExample();
  ReductionSpecification spec;
  spec.Add(ParseAction(*ex.mo, paper::kA1, "a1").take());
  spec.Add(ParseAction(*ex.mo, paper::kA2, "a2").take());
  auto reduced = Reduce(*ex.mo, spec, DaysFromCivil({2000, 11, 5})).take();

  std::string csv = WriteFactCsv(reduced);
  MultidimensionalObject back("Click", reduced.dimensions(),
                              std::vector<MeasureType>(reduced.measure_types()));
  ASSERT_TRUE(ReadFactCsv(&back, csv).ok());
  ASSERT_EQ(back.num_facts(), reduced.num_facts());
  for (FactId f = 0; f < back.num_facts(); ++f) {
    EXPECT_EQ(back.Coord(f, 0), reduced.Coord(f, 0));
    EXPECT_EQ(back.Coord(f, 1), reduced.Coord(f, 1));
    for (MeasureId m = 0; m < 4; ++m) {
      EXPECT_EQ(back.Measure(f, m), reduced.Measure(f, m));
    }
  }
}

TEST(WarehouseIoTest, FactCsvMaterializesUnknownTimeValues) {
  IspExample ex = MakeIspExample();
  std::string csv =
      "Time:category,Time:value,URL:category,URL:value,"
      "Number_of,Dwell_time,Delivery_time,Datasize\n"
      "month,2005/7,domain,cnn.com,3,100,5,42\n";
  ASSERT_TRUE(ReadFactCsv(ex.mo.get(), csv).ok());
  EXPECT_EQ(ex.mo->num_facts(), 8u);
  const Dimension& time = *ex.mo->dimension(ex.time_dim);
  EXPECT_NE(time.FindTimeValue(MonthGranule(2005, 7)), kInvalidValue);
}

TEST(WarehouseIoTest, FactCsvErrors) {
  IspExample ex = MakeIspExample();
  // Unknown categorical value.
  EXPECT_FALSE(
      ReadFactCsv(ex.mo.get(),
                  "Time:category,Time:value,URL:category,URL:value,"
                  "Number_of,Dwell_time,Delivery_time,Datasize\n"
                  "day,1999/11/23,domain,nosuch.example,1,1,1,1\n")
          .ok());
  // Granularity mismatch between category and time spelling.
  EXPECT_FALSE(
      ReadFactCsv(ex.mo.get(),
                  "Time:category,Time:value,URL:category,URL:value,"
                  "Number_of,Dwell_time,Delivery_time,Datasize\n"
                  "month,1999/11/23,domain,cnn.com,1,1,1,1\n")
          .ok());
  // Bad measure.
  EXPECT_FALSE(
      ReadFactCsv(ex.mo.get(),
                  "Time:category,Time:value,URL:category,URL:value,"
                  "Number_of,Dwell_time,Delivery_time,Datasize\n"
                  "day,1999/11/23,domain,cnn.com,one,1,1,1\n")
          .ok());
  // Wrong column count.
  EXPECT_FALSE(ReadFactCsv(ex.mo.get(), "a,b\n1,2\n").ok());
}

TEST(WarehouseIoTest, SpecificationFile) {
  IspExample ex = MakeIspExample();
  std::string text =
      "# the paper's specification\n"
      "a1: a[Time.month, URL.domain] s[URL.domain_grp = .com AND "
      "NOW - 12 months <= Time.month <= NOW - 6 months]\n"
      "\n"
      "a2: a[Time.quarter, URL.domain] s[URL.domain_grp = .com AND "
      "Time.quarter <= NOW - 4 quarters]\n"
      "purge: d s[Time.year <= NOW - 10 years]\n";
  auto actions = ReadSpecificationText(*ex.mo, text);
  ASSERT_TRUE(actions.ok()) << actions.status().ToString();
  ASSERT_EQ(actions.value().size(), 3u);
  EXPECT_EQ(actions.value()[0].name, "a1");
  EXPECT_TRUE(actions.value()[2].deletes);

  // A bad line reports a parse error.
  EXPECT_FALSE(ReadSpecificationText(*ex.mo, "oops: not an action\n").ok());
}

// Regression: AtomicWriteFile's temp name used to be pid-suffixed only, so
// two threads of one process replacing the same path truncated each other's
// temp file (one O_TRUNC open under the other's write) and could rename a
// half-written mix into place. With the process-wide sequence suffix every
// writer owns a distinct temp file, and the destination is always one
// writer's *complete* payload.
TEST(AtomicFileTest, ConcurrentSamePathWritersNeverInterleave) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "dwred_atomic_concurrent_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "target").string();

  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  // Each writer's payload is distinct in length AND content, so any
  // interleaved or truncated mix matches no expected payload.
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w) {
    payloads.push_back(std::string(1024 + 512 * w, 'a' + w) + ":" +
                       std::to_string(w));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        if (!AtomicWriteFile(path, payloads[w]).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto final_content = ReadFile(path);
  ASSERT_TRUE(final_content.ok()) << final_content.status().ToString();
  bool is_complete_payload = false;
  for (const std::string& p : payloads) {
    if (final_content.value() == p) is_complete_payload = true;
  }
  EXPECT_TRUE(is_complete_payload)
      << "destination holds " << final_content.value().size()
      << " bytes matching no writer's payload (interleaved temp files)";

  // No temp-file residue: every writer's temp was renamed or belongs to a
  // writer that lost the race and still renamed a complete file.
  size_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dwred
