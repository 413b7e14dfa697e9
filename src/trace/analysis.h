// TraceAnalysis: derive the paper's load-imbalance and contention
// diagnostics from raw recorder events.
//
// This is the trace-level counterpart of RunStats (§3.3): where RunStats
// aggregates wall/virtual time per thread, the analysis pass also sees
// *when* and *why* — steal attempt/success rates (WS contention), anchor
// histograms per cache level (SB placement behaviour, Fig. 10's σ story),
// admission failures (the bounded-occupancy hotspot that motivated SB-D),
// and a binned stall-time series showing where in the run load imbalance
// concentrated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.h"

namespace sbs::trace {

struct WorkerProfile {
  std::uint64_t strands = 0;
  std::uint64_t forks = 0;
  std::uint64_t joins = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t anchors = 0;
  std::uint64_t admission_failures = 0;
  std::uint64_t releases = 0;  ///< anchored-task charge releases
  std::uint64_t stalls = 0;    ///< empty-queue get() results

  // Tick totals per §3.3 component, reconstructed from the events.
  std::uint64_t active_ticks = 0;
  std::uint64_t add_ticks = 0;
  std::uint64_t done_ticks = 0;
  std::uint64_t get_ticks = 0;
  std::uint64_t empty_ticks = 0;

  std::uint64_t events = 0;   ///< surviving events analyzed
  std::uint64_t dropped = 0;  ///< lost to ring wraparound
};

struct TraceAnalysis {
  std::vector<WorkerProfile> workers;
  /// anchors_by_level[d] = anchor events at cache tree depth d.
  std::vector<std::uint64_t> anchors_by_level;
  /// Empty-queue (stall) ticks binned over [0, span_ticks).
  std::vector<std::uint64_t> stall_series;
  std::uint64_t bin_ticks = 0;    ///< width of one stall_series bin
  std::uint64_t span_ticks = 0;   ///< largest event end timestamp
  double ticks_per_second = 1e9;
  bool virtual_time = false;

  WorkerProfile totals() const;
  /// Worst-thread load imbalance: max active ticks / mean active ticks
  /// (1.0 = perfectly even; only workers appear in the mean, idle included).
  double load_imbalance() const;
  double steal_success_rate() const;  ///< successes / attempts (0 if none)
  double seconds(std::uint64_t ticks) const {
    return static_cast<double>(ticks) / ticks_per_second;
  }
};

/// Scan every worker's surviving events once and aggregate.
TraceAnalysis Analyze(const Recorder& recorder, int stall_bins = 32);

/// Simulator-engine overheads for the run the trace came from (sim engine
/// only; see sim/counters.h). The trace recorder never sees these — the
/// engine counts them directly — so callers pass them alongside the
/// analysis when exporting metrics.
struct EngineOverheads {
  std::uint64_t windows_executed = 0;
  std::uint64_t window_merges = 0;
  std::uint64_t pump_passes = 0;
  std::uint64_t fiber_switches = 0;
  std::uint64_t inline_strands = 0;

  bool any() const {
    return windows_executed != 0 || pump_passes != 0 || fiber_switches != 0;
  }
};

/// One JSONL record (a single line of JSON, no trailing newline) summarizing
/// the analysis — steal counts, per-level anchor histogram, stall-time
/// series, imbalance, per-worker profiles. If `engine` is non-null and
/// carries any counts, an "engine" sub-object with the simulator-overhead
/// counters is included.
std::string MetricsJsonLine(const TraceAnalysis& analysis,
                            const std::string& label,
                            const EngineOverheads* engine = nullptr);

/// Append `line` and a newline to `path`; `truncate` starts the file afresh.
/// Returns false if the file could not be written.
bool AppendJsonlLine(const std::string& path, const std::string& line,
                     bool truncate);

/// AppendJsonlLine(path, MetricsJsonLine(analysis, label, engine), truncate).
bool WriteMetricsJsonl(const TraceAnalysis& analysis, const std::string& path,
                       const std::string& label, bool truncate = false,
                       const EngineOverheads* engine = nullptr);

}  // namespace sbs::trace
