// The shared command layer (src/net/command.h): the one grammar that turns a
// script line into a Request, and the one Execute that runs it — the code
// dwredctl runs in process and dwredd runs behind the wire.

#include "net/command.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "chrono/civil.h"
#include "io/recovery.h"
#include "mdm/paper_example.h"
#include "paper_actions.h"
#include "spec/parser.h"

namespace dwred::net {
namespace {

const char* kInsertCsv =
    "Time:category,Time:value,URL:category,URL:value,"
    "Number_of,Dwell_time,Delivery_time,Datasize\n"
    "day,2000/12/1,url,www.cnn.com,1,100,2,40\n"
    "day,2000/12/2,url,www.cc.gatech.edu,1,200,3,50\n";

ReductionSpecification PaperSpec(const MultidimensionalObject& mo) {
  ReductionSpecification spec;
  spec.Add(ParseAction(mo, paper::kA1, "a1").take());
  spec.Add(ParseAction(mo, paper::kA2, "a2").take());
  return spec;
}

Request Parse(std::string_view line, std::string_view staged = "") {
  auto r = ParseCommand(line, staged);
  EXPECT_TRUE(r.ok()) << line << ": " << r.status().ToString();
  EXPECT_TRUE(r.ok() && r.value().request.has_value()) << line;
  return r.ok() && r.value().request ? *r.value().request : Request{};
}

TEST(CommandTest, ParseDayAcceptsOnlyADay) {
  auto day = ParseDay("2000/11/5");
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day.value(), DaysFromCivil({2000, 11, 5}));
  for (const char* not_a_day : {"2000/11", "2000Q4", "2000", "1999W48"}) {
    auto r = ParseDay(not_a_day);
    ASSERT_FALSE(r.ok()) << not_a_day;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "expected a day, e.g. 2000/11/5");
  }
  EXPECT_FALSE(ParseDay("").ok());
}

TEST(CommandTest, SharedLinesBecomeRequests) {
  const int64_t day = DaysFromCivil({2000, 11, 5});
  Request q = Parse("subcube-query 2000/11/5 Time.month, URL.domain "
                    "where URL.domain_grp = .com");
  EXPECT_EQ(q.cmd, Command::kQuery);
  EXPECT_EQ(q.now_day, day);
  EXPECT_EQ(q.flags, 0);
  EXPECT_EQ(q.a, "URL.domain_grp = .com");
  EXPECT_EQ(q.b, "Time.month, URL.domain");

  Request bare = Parse("subcube-query 2000/11/5");
  EXPECT_EQ(bare.a, "");
  EXPECT_EQ(bare.b, "");

  Request e = Parse("explain 2000/11/5 Time.month, URL.domain");
  EXPECT_EQ(e.flags, kQuerySynchronized | kQueryParallel | kQueryExplain);
  EXPECT_EQ(e.a, "");

  EXPECT_EQ(Parse("subcube-sync 2000/11/5").now_day, day);
  Request apply = Parse("apply 2000/11/5", "a1: d s[Time.year <= 1990]\n");
  EXPECT_EQ(apply.cmd, Command::kSpecChange);
  EXPECT_EQ(apply.now_day, day);
  EXPECT_EQ(apply.a, "a1: d s[Time.year <= 1990]\n");
  EXPECT_EQ(Parse("metrics").flags, 0);
  EXPECT_EQ(Parse("metrics-json").flags, kStatsJson);
  EXPECT_EQ(Parse("cache clear").a, "clear");
  EXPECT_EQ(Parse("ping").cmd, Command::kPing);
  EXPECT_EQ(Parse("snapshot-crc").cmd, Command::kSnapshotCrc);
  EXPECT_EQ(Parse("shutdown").cmd, Command::kShutdown);

  const std::string csv =
      (std::filesystem::temp_directory_path() /
       ("dwred_command_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::ofstream(csv) << kInsertCsv;
  for (const char* word : {"load-facts ", "subcube-load "}) {
    Request ins = Parse(word + csv);
    EXPECT_EQ(ins.cmd, Command::kInsert);
    EXPECT_EQ(ins.a, kInsertCsv);
  }
  std::filesystem::remove(csv);
}

TEST(CommandTest, LocalLinesComeBackSplit) {
  auto r = ParseCommand("  reduce   2000/11/5 ", "");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().word, "reduce");
  EXPECT_EQ(r.value().rest, "2000/11/5");
  EXPECT_FALSE(r.value().request.has_value());
  // `apply` without a date installs into the plain warehouse: local.
  EXPECT_FALSE(ParseCommand("apply", "a1: x\n").value().request.has_value());
  for (const char* blank : {"", "   ", "# comment"}) {
    auto b = ParseCommand(blank, "");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value().word, "");
    EXPECT_FALSE(b.value().request.has_value());
  }
}

TEST(CommandTest, EveryDateMustBeADay) {
  for (const char* line :
       {"subcube-query 2000/11 Time.month, URL.domain",
        "explain 2000/11 Time.month, URL.domain where Time.month <= 1999/11",
        "subcube-sync 2000Q4", "apply 2000"}) {
    auto r = ParseCommand(line, "");
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status().message(), "expected a day, e.g. 2000/11/5") << line;
  }
}

TEST(CommandTest, WithoutAWarehouseOnlyWarehouseFreeCommandsAnswer) {
  Response pong = Execute(Parse("ping"), {});
  EXPECT_EQ(pong.code, StatusCode::kOk);
  EXPECT_EQ(pong.body, "pong");
  EXPECT_EQ(Execute(Parse("metrics-json"), {}).body.front(), '{');
  Response q = Execute(Parse("subcube-query 2000/11/5"), {});
  EXPECT_EQ(q.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(q.message, "run 'subcube-init' first");
}

// The same requests through a bare manager and through an attached durable
// warehouse leave the same rows and answer the same query bytes; the durable
// writes are journaled, and a spec change, which is not, is refused.
TEST(CommandTest, DurableTargetJournalsAndAnswersLikeABareManager) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dwred_command_durable_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  IspExample ex = MakeIspExample();
  ReductionSpecification spec = PaperSpec(*ex.mo);
  auto m = SubcubeManager::Create(
      ex.mo->fact_type(), ex.mo->dimensions(),
      std::vector<MeasureType>(ex.mo->measure_types()), spec);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  SubcubeManager bare = m.take();
  ASSERT_TRUE(bare.InsertBottomFacts(*ex.mo).ok());

  IspExample ex2 = MakeIspExample();
  auto dw = DurableWarehouse::Create(dir, std::move(ex2.mo), std::move(spec));
  ASSERT_TRUE(dw.ok()) << dw.status().ToString();
  ASSERT_TRUE(dw.value()->EnableSubcubes().ok());
  DurableWarehouse& durable = *dw.value();

  Request insert;
  insert.cmd = Command::kInsert;
  insert.a = kInsertCsv;
  const CommandTarget plain{&bare, nullptr};
  const CommandTarget journaled{nullptr, &durable};
  for (const Request& req : {insert, Parse("subcube-sync 2000/12/5")}) {
    const uint64_t lsn = durable.applied_lsn();
    Response a = Execute(req, plain);
    Response b = Execute(req, journaled);
    ASSERT_EQ(a.code, StatusCode::kOk) << a.message;
    ASSERT_EQ(b.code, StatusCode::kOk) << b.message;
    EXPECT_EQ(durable.applied_lsn(), lsn + 1) << CommandName(req.cmd);
  }
  EXPECT_EQ(WarehouseCrc(bare), WarehouseCrc(*durable.subcubes()));
  const Request query =
      Parse("subcube-query 2000/12/5 Time.month, URL.domain");
  Response a = Execute(query, plain);
  ASSERT_EQ(a.code, StatusCode::kOk) << a.message;
  EXPECT_EQ(a.body, Execute(query, journaled).body);

  Response refused = Execute(Parse("apply 2000/12/5"), journaled);
  EXPECT_EQ(refused.code, StatusCode::kInvalidArgument);
  dw.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dwred::net
