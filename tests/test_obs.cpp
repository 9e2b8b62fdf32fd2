// Unit tests for the observability layer (src/obs): counters, scoped timers,
// report aggregation, Chrome trace export, and the disabled-mode contract.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/portal.h"
#include "data/generators.h"
#include "tree/kdtree.h"

using namespace portal;

namespace {

/// Every test owns the global trace state: start clean, leave disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  PORTAL_OBS_COUNT("test/disabled_counter", 5);
  { PORTAL_OBS_SCOPE(scope, "test/disabled_timer"); }
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("test/disabled_counter"), 0u);
  EXPECT_EQ(report.timer_count("test/disabled_timer"), 0u);
}

TEST_F(ObsTest, CountersAccumulate) {
  obs::set_enabled(true);
  PORTAL_OBS_COUNT("test/counter_a", 3);
  PORTAL_OBS_COUNT("test/counter_a", 4);
  PORTAL_OBS_COUNT("test/counter_b", 1);
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("test/counter_a"), 7u);
  EXPECT_EQ(report.counter("test/counter_b"), 1u);
  EXPECT_EQ(report.counter("test/absent"), 0u); // absent name -> 0
}

TEST_F(ObsTest, ScopedTimerRecordsSpans) {
  obs::set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    PORTAL_OBS_SCOPE(scope, "test/span");
  }
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.timer_count("test/span"), 3u);
  EXPECT_GE(report.timer_seconds("test/span"), 0.0);
  // Each span contributes one Chrome 'X' event.
  int spans = 0;
  for (const obs::TraceEvent& e : report.events)
    if (e.name == "test/span" && e.phase == 'X') ++spans;
  EXPECT_EQ(spans, 3);
}

TEST_F(ObsTest, StopIsIdempotent) {
  obs::set_enabled(true);
  {
    PORTAL_OBS_SCOPE(scope, "test/stop_once");
    scope.stop();
    scope.stop(); // second stop must not double-record
  }                // destructor must not record a third time
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.timer_count("test/stop_once"), 1u);
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::set_enabled(true);
  PORTAL_OBS_COUNT("test/reset_counter", 9);
  { PORTAL_OBS_SCOPE(scope, "test/reset_timer"); }
  obs::reset();
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("test/reset_counter"), 0u);
  EXPECT_EQ(report.timer_count("test/reset_timer"), 0u);
  EXPECT_TRUE(report.events.empty());
}

TEST_F(ObsTest, InstantEventsAppearInReport) {
  obs::set_enabled(true);
  obs::instant_event("test/instant");
  const obs::TraceReport report = obs::collect();
  bool found = false;
  for (const obs::TraceEvent& e : report.events)
    if (e.name == "test/instant" && e.phase == 'i') found = true;
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, CountersFromManyThreadsSumExactly) {
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i)
        PORTAL_OBS_COUNT("test/mt_counter", 1);
    });
  for (std::thread& t : threads) t.join();
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("test/mt_counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, HumanTableListsNamesAndValues) {
  obs::set_enabled(true);
  PORTAL_OBS_COUNT("test/table_counter", 42);
  { PORTAL_OBS_SCOPE(scope, "test/table_timer"); }
  const std::string table = obs::collect().human_table();
  EXPECT_NE(table.find("test/table_counter"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
  EXPECT_NE(table.find("test/table_timer"), std::string::npos);
}

TEST_F(ObsTest, ChromeJsonIsWellFormed) {
  obs::set_enabled(true);
  PORTAL_OBS_COUNT("test/json_counter", 2);
  { PORTAL_OBS_SCOPE(scope, "test/json \"quoted\"\ttimer"); }
  obs::instant_event("test/json_instant");
  const std::string json = obs::collect().chrome_json();
  // Structural sanity without a JSON parser: the envelope, the escaped name,
  // and balanced braces.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.rfind("]}"), json.size() - 2);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsTest, WriteChromeTraceProducesFile) {
  obs::set_enabled(true);
  { PORTAL_OBS_SCOPE(scope, "test/file_timer"); }
  const std::string path = ::testing::TempDir() + "portal_obs_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("test/file_timer"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, MetricOverflowClampsInsteadOfFailing) {
  obs::set_enabled(true);
  // Force far past kMaxMetrics distinct names; every call must stay safe and
  // the surplus lands in the shared overflow slot.
  for (int i = 0; i < static_cast<int>(obs::kMaxMetrics) + 64; ++i) {
    const std::string name = "test/overflow_" + std::to_string(i);
    obs::counter_add(obs::intern_counter(name.c_str()), 1);
  }
  const obs::TraceReport report = obs::collect();
  EXPECT_GE(report.counter("obs/overflow"), 64u);
  std::uint64_t total = 0;
  for (const obs::CounterStat& c : report.counters) total += c.value;
  EXPECT_EQ(total, static_cast<std::uint64_t>(obs::kMaxMetrics) + 64);
}

TEST_F(ObsTest, TreeBuildEmitsPhaseTimers) {
  obs::set_enabled(true);
  const Dataset data = make_gaussian_mixture(2000, 3, 4, 7);
  { KdTree tree(data, 32); }
  const obs::TraceReport report = obs::collect();
  EXPECT_EQ(report.counter("tree/kd/builds"), 1u);
  EXPECT_EQ(report.counter("tree/kd/points"), 2000u);
  EXPECT_EQ(report.timer_count("tree/kd/build"), 1u);
  EXPECT_GE(report.timer_count("tree/kd/partition"), 1u);
  EXPECT_GE(report.timer_count("tree/kd/materialize"), 1u);
  // Phases nest inside the build span.
  EXPECT_LE(report.timer_seconds("tree/kd/partition"),
            report.timer_seconds("tree/kd/build"));
}

TEST_F(ObsTest, FullPipelineRunCoversCompileAndTraversal) {
  obs::set_enabled(true);
  Storage data(make_gaussian_mixture(1500, 3, 4, 11));
  PortalExpr expr;
  expr.addLayer(PortalOp::FORALL, data);
  // Gaussian KDE: the envelope runs through the VM interpreter, lane-parallel
  // over base-case leaves (vm/batch_evals) and one value at a time for node
  // bounds, centre values and the compile-time shape analysis
  // (vm/kernel_evals). A pure-distance kernel like KARGMIN+EUCLIDEAN would
  // bypass the VM at run time via the identity-envelope fast path and record
  // zero batch evals.
  expr.addLayer(PortalOp::SUM, data, PortalFunc::gaussian(0.5));
  PortalConfig config;
  config.engine = Engine::VM;
  expr.execute(config);
  const obs::TraceReport report = obs::collect();
  EXPECT_GE(report.timer_count("compile/passes"), 1u);
  EXPECT_GE(report.timer_count("execute/total"), 1u);
  EXPECT_GE(report.timer_count("executor/traversal"), 1u);
  EXPECT_GT(report.counter("traversal/pairs_visited"), 0u);
  EXPECT_GT(report.counter("vm/kernel_evals"), 0u);
  EXPECT_GT(report.counter("vm/batch_evals"), 0u);
  bool engine_event = false;
  for (const obs::TraceEvent& e : report.events)
    if (e.name == "engine/vm" && e.phase == 'i') engine_event = true;
  EXPECT_TRUE(engine_event);
}

} // namespace
