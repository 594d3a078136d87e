// Scenario batch-runner tests: expansion over {solvers x instances x
// widths x seeds x repeats}, bit-identity against the direct registry
// drivers, Network pooling (constructed once per (width, seed) and
// reused across solvers and repeats), parameter overrides, applicability
// skipping, config validation, the timing breakdown, and the JSON
// writer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/oracle.hpp"
#include "harness/scenario.hpp"

namespace arbods::harness {
namespace {

std::vector<const CorpusInstance*> pointers(
    const std::vector<CorpusInstance>& corpus, std::size_t limit) {
  std::vector<const CorpusInstance*> out;
  for (std::size_t i = 0; i < corpus.size() && i < limit; ++i)
    out.push_back(&corpus[i]);
  return out;
}

TEST(Scenario, RowsMatchDirectRegistryRunsBitForBit) {
  const auto corpus = small_corpus(11);
  const auto instances = pointers(corpus, 4);

  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"randomized", std::nullopt, ""});
  spec.thread_widths = {1, 4};
  spec.seeds = {77};
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), instances.size() * 2 * 2);
  EXPECT_TRUE(all_identical(rows));

  for (const ScenarioRow& row : rows) {
    const CorpusInstance* inst = nullptr;
    for (const auto* candidate : instances)
      if (candidate->name == row.instance) inst = candidate;
    ASSERT_NE(inst, nullptr);
    SolverParams params = params_for(solver(row.solver), *inst);
    params.threads = row.threads;
    CongestConfig cfg;
    cfg.seed = row.seed;
    const MdsResult direct = run_solver(row.solver, inst->wg, params, cfg);
    EXPECT_EQ(direct.dominating_set, row.result.dominating_set)
        << row.solver << " on " << row.instance;
    EXPECT_EQ(direct.weight, row.result.weight);
    EXPECT_EQ(direct.packing, row.result.packing);
    EXPECT_TRUE(direct.stats == row.result.stats);
  }
}

TEST(Scenario, NetworkPoolConstructsOncePerConfigAndReuses) {
  const auto corpus = small_corpus(12);
  NetworkPool pool;
  CongestConfig serial;
  CongestConfig wide;
  wide.threads = 4;

  Network& a = pool.acquire(corpus[0].wg, serial);
  Network& b = pool.acquire(corpus[0].wg, serial);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(pool.constructed(), 1u);

  Network& c = pool.acquire(corpus[0].wg, wide);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(pool.constructed(), 2u);

  // A different graph under the same config is a different entry.
  pool.acquire(corpus[1].wg, serial);
  EXPECT_EQ(pool.constructed(), 3u);
  EXPECT_EQ(pool.size(), 3u);

  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  pool.acquire(corpus[0].wg, serial);
  EXPECT_EQ(pool.constructed(), 4u);
}

TEST(Scenario, RepeatsReuseTheNetworkAndStayIdentical) {
  const auto corpus = small_corpus(13);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"greedy-election", std::nullopt, ""});
  spec.repeats = 3;  // + warm-up: 4 runs per cell, one Network
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(all_identical(rows));
  for (const auto& row : rows) EXPECT_EQ(row.repeats, 3);
}

TEST(Scenario, TimingColumnsSumToTheReportedSeconds) {
  const auto corpus = small_corpus(18);
  const auto instances = pointers(corpus, 2);
  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"greedy-threshold", std::nullopt, ""});
  spec.thread_widths = {1, 2};
  // Reliable transport over a lossy wire puts time in every column.
  ScenarioFault lossy;
  lossy.label = "lossy";
  lossy.spec.drop_prob = 0.05;
  spec.fault_levels = {{}, lossy};
  for (const int repeats : {3, 4}) {  // odd: middle repeat; even: average
    spec.repeats = repeats;
    spec.base_config.reliable_transport = repeats == 4;
    const auto rows = run_scenario(spec, instances);
    ASSERT_EQ(rows.size(), 16u);
    for (const auto& row : rows) {
      const obs::TimingStats& t = row.timing;
      EXPECT_NEAR(t.compute_seconds + t.flip_seconds + t.retransmit_seconds +
                      row.other_seconds,
                  row.seconds, 1e-9)
          << row.instance << " / " << row.solver << " / " << row.fault;
      EXPECT_GE(row.other_seconds, 0.0) << row.instance << " / " << row.solver;
      EXPECT_GT(t.compute_seconds, 0.0);
      EXPECT_EQ(t.merge_seconds, 0.0);
      if (spec.base_config.reliable_transport)
        EXPECT_GT(t.retransmit_seconds, 0.0) << row.solver;
    }
  }
}

TEST(Scenario, OutOfRangeConfigsAreRejectedBeforeAnyRun) {
  const auto corpus = small_corpus(19);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.thread_widths = {-2};
  EXPECT_THROW(run_scenario(spec, instances), CheckError);
  spec.thread_widths = {1};
  ScenarioFault bad;
  bad.spec.drop_prob = 1.5;
  spec.fault_levels = {bad};
  EXPECT_THROW(run_scenario(spec, instances), CheckError);
  spec.fault_levels = {{}};
  spec.base_config.round_limit = -1;
  EXPECT_THROW(run_scenario(spec, instances), CheckError);
}

TEST(Scenario, SolverParamOverridesAreHonored) {
  const auto corpus = small_corpus(14);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  for (const std::int64_t t : {1, 4}) {
    SolverParams params;
    params.alpha = corpus[0].alpha;
    params.t = t;
    spec.solvers.push_back(
        {"randomized", params, "rand_t" + std::to_string(t)});
  }
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].solver, "rand_t1");
  EXPECT_EQ(rows[1].solver, "rand_t4");
  // Larger t = smaller lambda = more extension phases (paper iterations).
  EXPECT_LT(rows[0].result.iterations, rows[1].result.iterations);
}

TEST(Scenario, InapplicableSolversAreSkippedOrRejected) {
  const auto corpus = small_corpus(15);
  // cycle15 is not a forest; the tree solver cannot run on it.
  const CorpusInstance* cyclic = nullptr;
  for (const auto& inst : corpus)
    if (!inst.forest) cyclic = &inst;
  ASSERT_NE(cyclic, nullptr);
  const std::vector<const CorpusInstance*> instances = {cyclic};

  ScenarioSpec spec;
  spec.solvers.push_back({"tree", std::nullopt, ""});
  spec.solvers.push_back({"det", std::nullopt, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);  // tree skipped, det ran
  EXPECT_EQ(rows[0].solver, "det");

  spec.skip_inapplicable = false;
  EXPECT_THROW(run_scenario(spec, instances), CheckError);
}

TEST(Scenario, JsonWriterEmitsTheExp12Schema) {
  const auto corpus = small_corpus(16);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  spec.solvers.push_back({"greedy-threshold", std::nullopt, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);

  std::ostringstream os;
  write_scenario_json(os, rows);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"instance\": \"" + rows[0].instance + "\""),
            std::string::npos);
  for (const char* key :
       {"\"family\"", "\"n\"", "\"m\"", "\"solver\"", "\"threads\"",
        "\"seconds\"", "\"repeats\"", "\"rounds\"", "\"messages\"",
        "\"total_bits\"", "\"set_size\"", "\"weight\"", "\"identical\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"identical\": true"), std::string::npos);
}

TEST(Scenario, PerPhaseBreakdownSurvivesIntoRows) {
  const auto corpus = small_corpus(17);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  SolverParams params;
  params.alpha = corpus[0].alpha;
  spec.solvers.push_back({"randomized", params, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].result.stats.phases.size(), 2u);
  EXPECT_EQ(rows[0].result.stats.phases[0].name, "partial_ds");
  EXPECT_EQ(rows[0].result.stats.phases[1].name, "extension");
}

}  // namespace
}  // namespace arbods::harness
