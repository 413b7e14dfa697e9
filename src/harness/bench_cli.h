// Shared command line for the figure-reproduction bench binaries.
//
// Defaults are sized so the whole bench suite regenerates every figure in
// minutes on a laptop-class host; --full switches to the paper's problem
// sizes (10M-element synthetics, 100M-element kernels, 5.12K² matmul) and
// 10 repetitions, which takes correspondingly longer.
#pragma once

#include <cstdint>
#include <string>

#include "util/cli.h"

namespace sbs::harness {

struct BenchOptions {
  bool full = false;
  std::int64_t n = 0;      ///< 0 = per-bench default
  std::int64_t reps = 0;   ///< 0 = per-bench default (2; 10 with --full)
  std::string machine;     ///< empty = per-bench default
  std::string csv;         ///< write the table as CSV here too
  std::int64_t seed = 12345;
  double sigma = 0.5;
  double mu = 0.2;
  std::int64_t threads = -1;
  bool no_verify = false;
  /// --verify: wrap every scheduler in the verify:: invariant checker
  /// (correctness run; callbacks are serialized, timings meaningless).
  bool verify = false;
  std::string trace;         ///< Chrome trace of each cell's first repetition
  std::string metrics_json;  ///< JSONL metrics summary, one line per cell

  int repetitions() const {
    if (reps > 0) return static_cast<int>(reps);
    return full ? 10 : 2;
  }
  std::size_t problem_n(std::size_t dflt, std::size_t full_n) const {
    if (n > 0) return static_cast<std::size_t>(n);
    return full ? full_n : dflt;
  }
  /// Machine for this run: --machine wins; otherwise the paper's machine
  /// with --full and the ÷8-scaled twin (identical ratios) by default.
  std::string machine_for(const std::string& suffix = "") const {
    if (!machine.empty()) return machine;
    return (full ? "xeon7560" : "xeon7560_s8") + suffix;
  }
  /// The cache-size scale factor of a preset name ("..._s8..." → 8).
  static int ScaleOfPreset(const std::string& preset);
};

/// Registers the standard flags on `cli` and parses. Returns false on
/// --help (caller should exit 0).
bool ParseBenchOptions(int argc, char** argv, Cli& cli, BenchOptions* opts);

}  // namespace sbs::harness
