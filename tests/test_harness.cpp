// Tests for the experiment harness: matrix shape, verification wiring,
// bandwidth sweeps, figure-table rendering, and the forked cell runner
// (bit-identical to the engine run directly and to the serial path).
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "harness/bench_cli.h"
#include "harness/experiment.h"
#include "util/stats.h"

namespace sbs::harness {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.kernel = "rrm";
  spec.machine = "mini";
  spec.params.n = 30000;
  spec.params.base = 512;
  spec.schedulers = {"WS", "SB"};
  spec.repetitions = 2;
  return spec;
}

TEST(Harness, MatrixShapeAndOrdering) {
  ExperimentSpec spec = small_spec();
  spec.bandwidth_sockets = {2, 1};
  const auto results = RunExperiment(spec, /*progress=*/false);
  ASSERT_EQ(results.size(), 4u);  // 2 bandwidths x 2 schedulers
  EXPECT_EQ(results[0].bw_sockets, 2);
  EXPECT_EQ(results[0].scheduler, "WS");
  EXPECT_EQ(results[1].scheduler, "SB");
  EXPECT_EQ(results[2].bw_sockets, 1);
  for (const auto& c : results) {
    EXPECT_TRUE(c.verified);
    EXPECT_GT(c.active_s, 0.0);
    EXPECT_GT(c.llc_misses, 0.0);
    EXPECT_EQ(c.total_sockets, 2);
  }
  EXPECT_DOUBLE_EQ(results[0].bw_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(results[2].bw_fraction(), 0.5);
}

TEST(Harness, DefaultSweepIsFullBandwidth) {
  const auto results = RunExperiment(small_spec(), false);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].bw_sockets, 2);  // all of mini's sockets
}

TEST(Harness, LessBandwidthNeverSpeedsUpMemoryBoundRuns) {
  ExperimentSpec spec = small_spec();
  spec.params.n = 60000;
  spec.schedulers = {"WS"};
  spec.bandwidth_sockets = {2, 1};
  const auto results = RunExperiment(spec, false);
  const double full = results[0].active_s;
  const double half = results[1].active_s;
  EXPECT_GE(half, full * 0.99);
}

TEST(Harness, FigureTableHasRowPerCell) {
  const auto results = RunExperiment(small_spec(), false);
  const Table table = MakeFigureTable("test", results);
  EXPECT_EQ(table.num_rows(), results.size());
  const std::string text = table.to_string();
  EXPECT_NE(text.find("WS"), std::string::npos);
  EXPECT_NE(text.find("SB"), std::string::npos);
  EXPECT_NE(text.find("100% b/w"), std::string::npos);
}

// --- cell-level parallelism ---

// The exact comparison perfbench makes between a harness cell and the same
// cell run through the API: every simulated field, with ==.
void ExpectSameCell(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.bw_sockets, b.bw_sockets);
  EXPECT_EQ(a.total_sockets, b.total_sockets);
  EXPECT_EQ(a.active_s, b.active_s) << a.scheduler << "/" << a.bw_sockets;
  EXPECT_EQ(a.overhead_s, b.overhead_s);
  EXPECT_EQ(a.empty_s, b.empty_s);
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.llc_hits, b.llc_hits);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.queue_wait_cycles, b.queue_wait_cycles);
  EXPECT_EQ(a.strands, b.strands);
  EXPECT_EQ(a.empty_wakeups, b.empty_wakeups);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.sched_stats, b.sched_stats);
}

ExperimentSpec wide_spec() {
  ExperimentSpec spec = small_spec();
  spec.schedulers = {"CilkWS", "WS", "PWS", "SB", "SB-D"};
  spec.bandwidth_sockets = {2, 1};
  return spec;
}

/// The matrix of `spec` cell by cell through SimEngine, without the harness.
std::vector<CellResult> RunDirect(const ExperimentSpec& spec) {
  const machine::Topology topo(machine::Preset(spec.machine));
  auto kernel = kernels::MakeKernel(spec.kernel, spec.params);
  kernel->prepare(spec.seed);
  std::vector<CellResult> cells;
  for (int sockets : spec.bandwidth_sockets) {
    for (const auto& name : spec.schedulers) {
      sim::SimParams params;
      for (int s = 0; s < sockets; ++s)
        params.memory.allowed_sockets.push_back(s);
      sim::SimEngine engine(topo, params);
      CellResult c;
      c.scheduler = name;
      c.bw_sockets = sockets;
      c.total_sockets = static_cast<int>(topo.nodes_at_depth(1).size());
      std::vector<double> active, overhead, empty, wall, misses, hits, reads,
          queue;
      for (int rep = 0; rep < spec.repetitions; ++rep) {
        sched::SchedulerSpec ss;
        ss.name = name;
        ss.seed = spec.seed + static_cast<std::uint64_t>(rep);
        ss.sb = spec.sb;
        auto sched = sched::MakeScheduler(ss);
        const sim::SimResult r = engine.run(*sched, kernel->make_root());
        if (rep == 0) c.verified = kernel->verify();
        active.push_back(r.stats.avg_active_s());
        overhead.push_back(r.stats.avg_overhead_s());
        empty.push_back(r.stats.avg_empty_s());
        wall.push_back(r.stats.wall_s);
        misses.push_back(static_cast<double>(r.counters.llc_misses()));
        hits.push_back(static_cast<double>(r.counters.llc_hits()));
        reads.push_back(static_cast<double>(r.counters.dram_reads));
        queue.push_back(static_cast<double>(r.counters.queue_wait_cycles));
        c.strands = r.stats.total_strands();
        c.empty_wakeups = r.stats.total_empty_wakeups();
        c.sched_stats = r.sched_stats;
      }
      c.active_s = trimmed_mean(active);
      c.overhead_s = trimmed_mean(overhead);
      c.empty_s = trimmed_mean(empty);
      c.wall_s = trimmed_mean(wall);
      c.llc_misses = trimmed_mean(misses);
      c.llc_hits = trimmed_mean(hits);
      c.dram_reads = trimmed_mean(reads);
      c.queue_wait_cycles = trimmed_mean(queue);
      cells.push_back(c);
    }
  }
  return cells;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(HarnessParallel, WorkerCountFollowsAffinity) {
  EXPECT_EQ(CellWorkers(0), 1);
  EXPECT_EQ(CellWorkers(1), 1);
  EXPECT_GE(HostCpus(), 1);
  EXPECT_EQ(CellWorkers(10), std::min(10, HostCpus()));
}

TEST(HarnessParallel, ForkedCellsMatchDirectEngineRuns) {
  const ExperimentSpec spec = wide_spec();  // 10 cells: more than workers
  const auto harness = RunExperiment(spec, false);
  const auto direct = RunDirect(spec);
  ASSERT_EQ(harness.size(), 10u);
  ASSERT_EQ(direct.size(), harness.size());
  for (std::size_t i = 0; i < harness.size(); ++i) {
    ExpectSameCell(harness[i], direct[i]);
    EXPECT_GT(harness[i].host_s, 0.0);
  }
}

TEST(HarnessParallel, PinnedSerialRunIsIdentical) {
  ExperimentSpec spec = wide_spec();
  const std::string base = ::testing::TempDir() + "harness_parallel_" +
                           std::to_string(getpid());
  spec.metrics_path = base + ".free.jsonl";
  const auto free_run = RunExperiment(spec, false);

  cpu_set_t all, one;
  ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  EXPECT_EQ(CellWorkers(10), 1);
  spec.metrics_path = base + ".pinned.jsonl";
  const auto pinned_run = RunExperiment(spec, false);
  ASSERT_EQ(sched_setaffinity(0, sizeof all, &all), 0);

  ASSERT_EQ(free_run.size(), pinned_run.size());
  for (std::size_t i = 0; i < free_run.size(); ++i)
    ExpectSameCell(free_run[i], pinned_run[i]);
  const std::string free_lines = ReadFile(base + ".free.jsonl");
  EXPECT_EQ(std::count(free_lines.begin(), free_lines.end(), '\n'), 10);
  EXPECT_EQ(free_lines, ReadFile(base + ".pinned.jsonl"));
  std::remove((base + ".free.jsonl").c_str());
  std::remove((base + ".pinned.jsonl").c_str());
}

pid_t g_experiment_pid = 0;

// Runs as the experiment process aborts: by then every cell child must have
// been reaped.
void ReportChildrenOnAbort(int) {
  if (getpid() != g_experiment_pid) return;
  const bool none = waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
  const char* msg = none ? "\nno child left\n" : "\nchild left behind\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
}

TEST(HarnessParallelDeathTest, FailingCellAbortsWithItsLabel) {
  ExperimentSpec spec = small_spec();
  spec.schedulers = {"WS", "SB", "PWS"};  // only the SB cell fails
  spec.verify_invariants = true;
  // Over-admission with σ=1: the checker flags the bounded property.
  spec.sb.sigma = 1.0;
  spec.sb.test_faults.force_admission = true;
  const std::string label = "rrm@mini/SB/2bw";
  const std::string regex =
      CellWorkers(3) > 1 ? "cell " + label +
                               " failed in its child process(.|\n)*"
                               "no child left"
                         : label + "(.|\n)*no child left";
  EXPECT_DEATH(
      {
        g_experiment_pid = getpid();
        std::signal(SIGABRT, ReportChildrenOnAbort);
        RunExperiment(spec, false);
      },
      regex);
}

TEST(BenchCli, ScaleOfPreset) {
  EXPECT_EQ(BenchOptions::ScaleOfPreset("xeon7560"), 1);
  EXPECT_EQ(BenchOptions::ScaleOfPreset("xeon7560_s8"), 8);
  EXPECT_EQ(BenchOptions::ScaleOfPreset("xeon7560_s8_ht"), 8);
  EXPECT_EQ(BenchOptions::ScaleOfPreset("xeon7560_s16_4x2"), 16);
  EXPECT_EQ(BenchOptions::ScaleOfPreset("mini"), 1);
}

TEST(BenchCli, DefaultsAndOverrides) {
  BenchOptions opts;
  EXPECT_EQ(opts.repetitions(), 2);
  EXPECT_EQ(opts.machine_for(), "xeon7560_s8");
  EXPECT_EQ(opts.machine_for("_ht"), "xeon7560_s8_ht");
  EXPECT_EQ(opts.problem_n(100, 1000), 100u);
  opts.full = true;
  EXPECT_EQ(opts.repetitions(), 10);
  EXPECT_EQ(opts.machine_for(), "xeon7560");
  EXPECT_EQ(opts.problem_n(100, 1000), 1000u);
  opts.n = 7;
  opts.reps = 4;
  opts.machine = "mini";
  EXPECT_EQ(opts.problem_n(100, 1000), 7u);
  EXPECT_EQ(opts.repetitions(), 4);
  EXPECT_EQ(opts.machine_for(), "mini");
}

}  // namespace
}  // namespace sbs::harness
