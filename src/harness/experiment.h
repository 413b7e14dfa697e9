// Experiment harness: runs a (kernel × scheduler × bandwidth × machine)
// matrix on the PMH simulator, with the paper's measurement conventions —
// ≥N repetitions per cell, smallest and largest reading dropped (§5.3),
// active time and overhead reported separately (§3.3), plus exact simulated
// L3 miss counts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "machine/topology.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "util/table.h"

namespace sbs::harness {

struct ExperimentSpec {
  std::string kernel;
  kernels::KernelParams params;
  std::vector<std::string> schedulers = {"WS", "PWS", "SB", "SB-D"};
  std::string machine = "xeon7560";
  /// Memory sockets in use per sweep point (paper: 4→100%, 3→75%, 2→50%,
  /// 1→25% bandwidth). Empty = one point with all sockets.
  std::vector<int> bandwidth_sockets;
  int repetitions = 3;
  std::uint64_t seed = 12345;
  /// Space-bounded scheduler knobs.
  sched::SpaceBounded::Options sb;
  int num_threads = -1;  ///< -1: all hardware threads of the machine
  bool verify = true;
  /// Wrap every scheduler in verify::VerifyingScheduler and abort (with the
  /// checker's report) on any invariant violation. Serializes the scheduler
  /// callbacks — a correctness mode, not a timing mode.
  bool verify_invariants = false;

  /// Chrome Trace Event output: the first repetition of each cell is traced
  /// and written to this path, with "<scheduler>_<sockets>bw" inserted
  /// before the extension when the matrix has more than one cell.
  std::string trace_path;
  /// JSONL metrics output: one line per cell, appended in cell order (the
  /// file is truncated at the start of the experiment when
  /// `metrics_truncate` is set — multi-spec benches clear it after their
  /// first RunExperiment call so every sweep point lands in one file).
  std::string metrics_path;
  bool metrics_truncate = true;
  /// Prefix for the per-cell labels in the metrics JSONL — multi-spec
  /// benches set it to the sweep-point name (e.g. "sigma0.9") so lines from
  /// different RunExperiment calls stay distinguishable.
  std::string label_prefix;
};

/// Aggregated measurements of one (scheduler, bandwidth) cell.
struct CellResult {
  std::string scheduler;
  int bw_sockets = 0;
  int total_sockets = 0;

  // Trimmed means over repetitions, in seconds / counts.
  double active_s = 0;
  double overhead_s = 0;  ///< add + done + get + empty
  double empty_s = 0;
  double wall_s = 0;
  double llc_misses = 0;
  double llc_hits = 0;
  double dram_reads = 0;
  double queue_wait_cycles = 0;
  std::uint64_t strands = 0;
  /// Scheduler polls that returned no job (last repetition's total across
  /// workers) — the pressure on the engines' idle-backoff path.
  std::uint64_t empty_wakeups = 0;

  bool verified = true;
  std::string sched_stats;
  /// Host wall time of the whole cell (engine construction, every
  /// repetition, verification), measured in the process that ran it.
  double host_s = 0;

  double bw_fraction() const {
    return total_sockets == 0
               ? 1.0
               : static_cast<double>(bw_sockets) /
                     static_cast<double>(total_sockets);
  }
};

/// Run the full matrix. Progress lines (one per cell) go to stderr when
/// `progress` is true. Cells are ordered bandwidth-major, scheduler-minor
/// (matching the paper's figure layout).
///
/// The cells run concurrently, one forked child process per cell and at
/// most CellWorkers(cells) children alive at once. The parent builds the
/// topology and prepares the kernel once; every child starts from that
/// state, so its arena addresses, and with them every simulated result, are
/// those of a serial run. A child returns its CellResult and metrics line
/// over a pipe; the parent prints progress and appends the metrics lines in
/// cell order. A cell that fails (a verifier or kernel check, a crash) has
/// its remaining siblings killed and reaped, then fails an SBS_CHECK naming
/// the cell; no child outlives the call. With one worker the same cell
/// function runs in the calling process.
std::vector<CellResult> RunExperiment(const ExperimentSpec& spec,
                                      bool progress = true);

/// CPUs this process may run on (sched_getaffinity; 1 if unknown).
int HostCpus();

/// Children RunExperiment keeps alive for a matrix of `cells` cells:
/// min(cells, HostCpus()), or 1 when the calling process already runs other
/// threads (forking a multi-threaded process is unsafe) or has one cell.
int CellWorkers(std::size_t cells);

/// Render results in the paper's figure layout: one row per
/// (bandwidth, scheduler) with active time, overhead, and L3 misses.
Table MakeFigureTable(const std::string& title,
                      const std::vector<CellResult>& results);

/// "out.json" + "SB_4bw" -> "out.SB_4bw.json" — insert a suffix before the
/// extension. Multi-spec benches use it to keep sweep points from
/// overwriting each other's trace files.
std::string WithPathSuffix(const std::string& path, const std::string& suffix);

}  // namespace sbs::harness
