// BenchReport: machine-readable results file for the bench binaries.
//
// Each figure binary accumulates every RunExperiment call it makes into one
// report and writes it as BENCH_<name>.json next to the human-readable
// table. Multi-spec benches (fig7's machine sweep, fig10's σ sweep) add one
// group per RunExperiment call, tagged with a free-form label.
//
// Schema 2 adds how the run used the host: the bench process's wall time up
// to the write (host_wall_s), the CPUs it could use (host_cpus), the most
// cell children any RunExperiment call kept alive (cell_workers) and the
// largest peak RSS of a reaped child (children_peak_rss_mb) — the children's
// memory is not in the process's own RSS. Each cell carries host_s.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace sbs::harness {

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record one RunExperiment call's spec + results. `group` distinguishes
  /// sweep points in multi-spec benches ("" is fine for single-spec ones).
  void add(const ExperimentSpec& spec, const std::vector<CellResult>& results,
           const std::string& group = "");

  /// Write the report as JSON. Empty path means "BENCH_<name>.json" in the
  /// current directory. Returns false if the file could not be written.
  bool write(const std::string& path = "") const;

  /// The default output path for this bench.
  std::string default_path() const { return "BENCH_" + bench_name_ + ".json"; }

 private:
  struct Group {
    std::string label;
    std::string kernel;
    std::string machine;
    std::uint64_t n = 0;
    int repetitions = 0;
    double sigma = 0;
    double mu = 0;
    std::vector<CellResult> cells;
  };

  std::string bench_name_;
  std::vector<Group> groups_;
  int cell_workers_ = 1;
};

}  // namespace sbs::harness
