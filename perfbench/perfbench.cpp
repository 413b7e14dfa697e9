// The repository benchmark: runs one workload of simulator cells through the
// library's public API (machine::Topology, kernels::Kernel,
// sched::MakeScheduler, sim::SimEngine, harness::RunExperiment) and prints one
// JSON object with its metrics as the last line of stdout. run.py builds this
// program, runs it once per workload and turns that object into the
// benchmark's result line; README.md next to this file explains the metrics.
//
// Two modes:
//   --trace 0  end-to-end pass, untraced: one cold set-up, then repeated
//              passes over the workload's cells for --seconds, each cell
//              timed between two rounds of a fixed calibration loop; the
//              best of each cell at reference host speed.
//   --trace 1  per-layer split: per cell an untraced run, a run with every
//              call into a layer timed from this file (scheduler callbacks
//              through a pass-through decorator) and a one-worker native
//              ThreadPool run of its job tree; then a pass with the engine's
//              trace recorder on. Every run must reproduce the untraced run's
//              makespan and counters exactly.
//
// A cell fails when Kernel::verify fails or when a repeated, traced or
// recorded run of it differs from the untraced run. Failures are counted, the
// run continues, and the program exits 1 if any cell failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/experiment.h"
#include "kernels/kernel.h"
#include "machine/config.h"
#include "machine/topology.h"
#include "runtime/scheduler.h"
#include "runtime/thread_pool.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "util/cli.h"
#include "util/json.h"

#ifndef SBS_BENCH_BUILD_TYPE
#define SBS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sbs;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Spans of the traced pass: coarse, kept in memory, written once at the end.

class SpanLog {
 public:
  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  /// Open a span; returns its id. `parent` is -1 for a root span.
  int begin(const std::string& name, int parent = -1) {
    spans_.push_back(Span{name, parent, now_s() - origin_, -1, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Close span `id`; returns its duration in seconds.
  using Args = std::vector<std::pair<std::string, double>>;
  double end(int id, Args args = {}) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now_s() - origin_;
    s.args = std::move(args);
    return s.end_s - s.start_s;
  }

  bool write(const std::string& path, std::uint64_t seed) const {
    JsonWriter w;
    w.begin_object().kv("workload", workload_).kv("seed", seed);
    w.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .kv("id", static_cast<std::uint64_t>(i))
          .kv("name", s.name)
          .kv("parent", s.parent)
          .kv("workload", workload_)
          .kv("start_s", s.start_s)
          .kv("end_s", s.end_s);
      if (!s.args.empty()) {
        w.key("args").begin_object();
        for (const auto& [k, v] : s.args) w.kv(k, v);
        w.end_object();
      }
      w.end_object();
    }
    w.end_array().end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s, end_s;
    Args args;
  };
  std::string workload_;
  double origin_ = now_s();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Scheduler callbacks, timed from outside. The decorator only forwards: it
// performs no instrumented scheduler ops (sched/ops.h), so the simulator
// charges exactly what it charges the bare scheduler and results stay
// bit-identical — the traced pass checks that on every cell.

struct SchedTimes {
  std::uint64_t add_calls = 0, get_calls = 0, get_hits = 0, done_calls = 0;
  std::int64_t add_ns = 0, get_ns = 0, done_ns = 0;

  SchedTimes& operator+=(const SchedTimes& o) {
    add_calls += o.add_calls;
    get_calls += o.get_calls;
    get_hits += o.get_hits;
    done_calls += o.done_calls;
    add_ns += o.add_ns;
    get_ns += o.get_ns;
    done_ns += o.done_ns;
    return *this;
  }
  double total_s() const {
    return static_cast<double>(add_ns + get_ns + done_ns) * 1e-9;
  }
};

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

class TimedScheduler final : public runtime::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<runtime::Scheduler> inner)
      : inner_(std::move(inner)) {}

  void start(const machine::Topology& topo, int num_threads) override {
    inner_->start(topo, num_threads);
  }
  void finish() override { inner_->finish(); }
  void add(runtime::Job* job, int thread_id) override {
    const auto t0 = Clock::now();
    inner_->add(job, thread_id);
    times_.add_ns += ns_since(t0);
    ++times_.add_calls;
  }
  runtime::Job* get(int thread_id) override {
    const auto t0 = Clock::now();
    runtime::Job* job = inner_->get(thread_id);
    times_.get_ns += ns_since(t0);
    ++times_.get_calls;
    if (job != nullptr) ++times_.get_hits;
    return job;
  }
  void done(runtime::Job* job, int thread_id, bool task_completed) override {
    const auto t0 = Clock::now();
    inner_->done(job, thread_id, task_completed);
    times_.done_ns += ns_since(t0);
    ++times_.done_calls;
  }
  std::string name() const override { return inner_->name(); }
  bool needs_size_annotations() const override {
    return inner_->needs_size_annotations();
  }
  std::string stats_string() const override { return inner_->stats_string(); }

  // The simulator calls every callback from its single pump thread
  // (host_threads = 1), so plain fields suffice.
  const SchedTimes& times() const { return times_; }

 private:
  std::unique_ptr<runtime::Scheduler> inner_;
  SchedTimes times_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Cell {
  std::string label;
  std::string sched;
  int sockets = 0;  ///< memory sockets in use; 0 = all (SimParams default)
};

struct Workload {
  std::string name;
  std::string config_file;  ///< relative to the repository root, or empty
  std::string preset;       ///< used when config_file is empty
  std::string kernel;
  kernels::KernelParams params;
  std::vector<Cell> cells;
  bool via_harness = false;  ///< end-to-end pass is harness::RunExperiment
  std::vector<int> bw_sweep;  ///< RunExperiment's bandwidth_sockets
};

bool MakeWorkload(const std::string& name, std::int64_t n_override,
                  Workload* w) {
  w->name = name;
  if (name == "fig4-samplesort") {
    // The ROADMAP reference cell: the config file, not the preset.
    w->config_file = "configs/xeon7560_fig4.cfg";
    w->kernel = "samplesort";
    w->params.n = 1'000'000;
    w->cells = {{"WS", "WS", 0}, {"SB", "SB", 0}};
  } else if (name == "huge64-samplesort") {
    w->config_file = "configs/huge64_4level.cfg";
    w->kernel = "samplesort";
    w->params.n = 250'000;
    w->cells = {{"WS", "WS", 0}, {"SB", "SB", 0}};
  } else if (name == "fig6-rrg") {
    // bench/fig6_rrg's set-up at a sixth of its default n, so that a run
    // holds several RunExperiment calls and API passes, at two of its
    // bandwidth points. The footprint (2 MB) is two thirds of one socket's
    // L3; the random gathers still miss the memos.
    w->preset = "xeon7560_s8";
    w->kernel = "rrg";
    w->params.n = 100'000;
    w->params.repeats = 3;
    w->params.machine_scale = 8;
    w->params.base = 2048 / 8;
    w->via_harness = true;
    w->bw_sweep = {4, 1};
    // Bandwidth-major, scheduler-minor: RunExperiment's cell order.
    for (int bw : w->bw_sweep)
      for (const char* s : {"WS", "SB"})
        w->cells.push_back({std::string(s) + "-" + std::to_string(bw) + "bw",
                            s, bw});
  } else {
    return false;
  }
  if (n_override > 0) w->params.n = static_cast<std::size_t>(n_override);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: machine config + Topology, one SimEngine per bandwidth setting, and
// Kernel::prepare (input generation).

struct Setup {
  // Declaration order matters: engines refer to topo.
  std::unique_ptr<machine::Topology> topo;
  std::map<int, std::unique_ptr<sim::SimEngine>> engines;  ///< by sockets
  std::unique_ptr<kernels::Kernel> kernel;
  /// Prepared like `kernel` but never run; only for --force-fail-cell.
  std::unique_ptr<kernels::Kernel> unrun_twin;
  double topology_s = 0, engine_ctor_s = 0, prepare_s = 0;

  double total_s() const { return topology_s + engine_ctor_s + prepare_s; }
  void reset() {
    unrun_twin.reset();
    kernel.reset();
    engines.clear();
    topo.reset();
  }
};

sim::SimParams ParamsFor(int sockets) {
  sim::SimParams p;
  p.host_threads = 1;
  for (int s = 0; s < sockets; ++s) p.memory.allowed_sockets.push_back(s);
  return p;
}

void DoSetup(const Workload& w, const std::string& root, std::uint64_t seed,
             bool want_twin, Setup* s, SpanLog* spans, int parent) {
  s->reset();
  const int setup_span = spans ? spans->begin("setup", parent) : -1;

  int sp = spans ? spans->begin("setup/topology", setup_span) : -1;
  double t0 = now_s();
  machine::MachineConfig cfg =
      w.config_file.empty() ? machine::Preset(w.preset)
                            : machine::LoadConfigFile(root + "/" +
                                                      w.config_file);
  s->topo = std::make_unique<machine::Topology>(std::move(cfg));
  s->topology_s = now_s() - t0;
  if (spans) spans->end(sp);

  sp = spans ? spans->begin("setup/engine_ctor", setup_span) : -1;
  t0 = now_s();
  for (const Cell& c : w.cells) {
    if (s->engines.count(c.sockets) == 0)
      s->engines[c.sockets] =
          std::make_unique<sim::SimEngine>(*s->topo, ParamsFor(c.sockets));
  }
  s->engine_ctor_s = now_s() - t0;
  if (spans) spans->end(sp);

  sp = spans ? spans->begin("setup/prepare", setup_span) : -1;
  t0 = now_s();
  s->kernel = kernels::MakeKernel(w.kernel, w.params);
  s->kernel->prepare(seed);
  s->prepare_s = now_s() - t0;
  if (spans) spans->end(sp);
  if (spans) spans->end(setup_span);

  if (want_twin) {
    s->unrun_twin = kernels::MakeKernel(w.kernel, w.params);
    s->unrun_twin->prepare(seed);
  }
}

// ---------------------------------------------------------------------------
// One cell: make_root + SimEngine::run + Kernel::verify.

struct CellOutcome {
  std::uint64_t makespan = 0;
  sim::Counters counters;
  std::uint64_t strands = 0;
  double sim_wall_s = 0;  ///< simulated makespan in seconds (RunStats)
  double empty_s = 0;     ///< simulated mean empty-queue time (RunStats)
  std::uint64_t empty_wakeups = 0;
  double run_s = 0, verify_s = 0;
  bool verified = false;
  SchedTimes sched;
  std::uint64_t trace_events = 0, trace_dropped = 0;
};

bool SameLevel(const sim::LevelCounters& a, const sim::LevelCounters& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions &&
         a.back_invalidations == b.back_invalidations &&
         a.coherence_invalidations == b.coherence_invalidations;
}

/// Makespan and every sim::Counters field equal.
bool SameResult(const CellOutcome& a, const CellOutcome& b) {
  const sim::Counters& x = a.counters;
  const sim::Counters& y = b.counters;
  if (a.makespan != b.makespan || x.level.size() != y.level.size())
    return false;
  for (std::size_t d = 0; d < x.level.size(); ++d)
    if (!SameLevel(x.level[d], y.level[d])) return false;
  return x.dram_reads == y.dram_reads &&
         x.dram_writebacks == y.dram_writebacks &&
         x.remote_dram_accesses == y.remote_dram_accesses &&
         x.queue_wait_cycles == y.queue_wait_cycles &&
         x.accesses == y.accesses && x.writes == y.writes &&
         x.filter_skips == y.filter_skips &&
         x.fiber_switches == y.fiber_switches &&
         x.windows_executed == y.windows_executed &&
         x.window_merges == y.window_merges &&
         x.pump_passes == y.pump_passes &&
         x.inline_strands == y.inline_strands && a.strands == b.strands;
}

enum class Mode { kPlain, kTimed, kRecorded };

struct RunOptions {
  std::uint64_t seed = 1;
  std::string force_fail_cell;      ///< verify this cell on an unrun twin
  std::string force_mismatch_cell;  ///< timed run uses another sched seed
};

CellOutcome RunCell(Setup& s, const Cell& cell, Mode mode,
                    const RunOptions& opt, SpanLog* spans, int parent) {
  CellOutcome out;
  sim::SimEngine& engine = *s.engines.at(cell.sockets);
  static const char* const kModeNames[] = {"untraced", "timed", "recorded"};
  const std::string prefix =
      std::string(kModeNames[static_cast<int>(mode)]) + "/" + cell.label;
  const int cell_span = spans ? spans->begin(prefix, parent) : -1;

  sched::SchedulerSpec spec;
  spec.name = cell.sched;
  spec.seed = opt.seed;
  if (mode == Mode::kTimed && cell.label == opt.force_mismatch_cell)
    spec.seed = opt.seed + 1;
  std::unique_ptr<runtime::Scheduler> sched = sched::MakeScheduler(spec);
  TimedScheduler* timed = nullptr;
  if (mode == Mode::kTimed) {
    auto wrapped = std::make_unique<TimedScheduler>(std::move(sched));
    timed = wrapped.get();
    sched = std::move(wrapped);
  }

  int sp = spans ? spans->begin(prefix + "/make_root", cell_span)
                 : -1;
  runtime::Job* root = s.kernel->make_root();
  if (spans) spans->end(sp);

  sp = spans ? spans->begin(prefix + "/run", cell_span) : -1;
  double t0 = now_s();
  const sim::SimResult r = engine.run(*sched, root);
  out.run_s = now_s() - t0;
  if (spans) {
    SpanLog::Args args;
    if (timed != nullptr) {
      // Callbacks are aggregated, never one span per call.
      const SchedTimes& t = timed->times();
      args = {{"sched.add_calls", static_cast<double>(t.add_calls)},
              {"sched.get_calls", static_cast<double>(t.get_calls)},
              {"sched.get_hits", static_cast<double>(t.get_hits)},
              {"sched.done_calls", static_cast<double>(t.done_calls)},
              {"sched.busy_s", t.total_s()}};
    }
    spans->end(sp, std::move(args));
  }

  out.makespan = r.makespan_cycles;
  out.counters = r.counters;
  out.strands = r.stats.total_strands();
  out.sim_wall_s = r.stats.wall_s;
  out.empty_s = r.stats.avg_empty_s();
  out.empty_wakeups = r.stats.total_empty_wakeups();
  if (timed != nullptr) out.sched = timed->times();
  if (mode == Mode::kRecorded && engine.recorder() != nullptr) {
    out.trace_events = engine.recorder()->total_recorded();
    out.trace_dropped = engine.recorder()->total_dropped();
  }

  sp = spans ? spans->begin(prefix + "/verify", cell_span) : -1;
  t0 = now_s();
  const kernels::Kernel& checked =
      cell.label == opt.force_fail_cell && s.unrun_twin ? *s.unrun_twin
                                                         : *s.kernel;
  out.verified = checked.verify();
  out.verify_s = now_s() - t0;
  if (spans) spans->end(sp);
  if (spans) spans->end(cell_span);
  return out;
}

/// The cell's job tree on a one-worker ThreadPool, no simulator: the host
/// cost of the kernel's own work, the floor under SimEngine::run.
double RunNative(Setup& s, runtime::ThreadPool& pool, const Cell& cell,
                 std::uint64_t seed, SpanLog* spans, int parent) {
  std::unique_ptr<runtime::Scheduler> sched =
      sched::MakeScheduler(sched::SchedulerSpec{cell.sched, seed, {}});
  runtime::Job* root = s.kernel->make_root();
  const int sp = spans ? spans->begin("native/" + cell.label, parent)
                       : -1;
  const double t0 = now_s();
  pool.run(*sched, root);
  const double dt = now_s() - t0;
  if (spans) spans->end(sp);
  return dt;
}

harness::ExperimentSpec HarnessSpec(const Workload& w, std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.kernel = w.kernel;
  spec.params = w.params;
  spec.machine = w.preset;
  spec.schedulers = {"WS", "SB"};
  spec.bandwidth_sockets = w.bw_sweep;
  spec.repetitions = 1;
  spec.seed = seed;
  spec.verify = true;
  return spec;
}

/// The harness cell reproduces the API-path cell on every simulated result
/// CellResult exposes (one repetition, so its "trimmed means" are exact).
bool SameAsHarness(const harness::CellResult& h, const CellOutcome& c) {
  return h.verified && h.wall_s == c.sim_wall_s &&
         h.llc_misses == static_cast<double>(c.counters.llc_misses()) &&
         h.llc_hits == static_cast<double>(c.counters.llc_hits()) &&
         h.dram_reads == static_cast<double>(c.counters.dram_reads) &&
         h.queue_wait_cycles ==
             static_cast<double>(c.counters.queue_wait_cycles) &&
         h.strands == c.strands && h.empty_wakeups == c.empty_wakeups;
}

// ---------------------------------------------------------------------------
// Result assembly.

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  /// Per-cell split of a traced run, for the report (every cell, including
  /// those the model.* metrics do not name).
  std::vector<std::vector<std::pair<std::string, double>>> cells;
  /// Per-pass samples behind the end-to-end metrics, for the report.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void count(const std::string& name, std::uint64_t value) {
    metric(name, static_cast<double>(value), "count");
  }
  /// One attempted cell run: it fails if any of its checks fails.
  void cell(const std::string& tag,
            std::initializer_list<std::pair<bool, const char*>> checks) {
    ++attempted;
    std::string why;
    for (const auto& [ok, what] : checks)
      if (!ok) why += std::string(why.empty() ? "" : "; ") + what;
    if (why.empty()) return;
    failures.push_back(tag + ": " + why);
    std::fprintf(stderr, "perfbench: FAILED %s\n", failures.back().c_str());
  }
};

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Host-speed calibration. The host's CPUs are shared: over minutes the same
// cell's host time swings by up to 2x while the process keeps its CPU, which
// points at a co-runner on the same physical core and shared caches. A fixed
// loop of this file's own code, timed next to every measured unit, tracks
// those swings. Every end-to-end time is reported at a reference host
// speed: host seconds times kReferenceCalS over the calibration time measured
// with it, i.e. what it would have taken had the loop run in
// kReferenceCalS. The loop mixes the kinds of work the simulator does (independent integer
// chains, binary search, sorting, hash lookups and a set-associative LRU
// model) and calls nothing from the library, so a change to the library
// moves the measured unit and never the calibration.

/// One round of the loop on the Xeon host the README's figures come from,
/// in its quiet phases (measured medians 0.066-0.070 s).
constexpr double kReferenceCalS = 0.07;

/// `host_s` measured next to a calibration round of `cal_s`, rescaled to the
/// reference host speed.
double AtReference(double host_s, double cal_s) {
  return host_s * kReferenceCalS / cal_s;
}

class Calibration {
 public:
  Calibration() : tags_(kLevels * kSets * kWays, ~std::uint64_t{0}) {
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    sorted_.resize(1 << 18);
    for (auto& v : sorted_) v = static_cast<std::uint32_t>(Next(x));
    std::sort(sorted_.begin(), sorted_.end());
    unsorted_.resize(1 << 16);
    for (auto& v : unsorted_) v = static_cast<std::uint32_t>(Next(x));
    for (std::uint32_t i = 0; i < (1u << 15); ++i) map_[Next(x) & kKeyMask] = i;
  }

  /// Host seconds of one fixed round of the loop (about 0.07 s on the
  /// Xeon host the README's figures come from).
  double run() {
    const double t0 = now_s();
    std::uint64_t acc = Chains(10'000'000) + Search(150'000) + Sort(3) +
                        Lookup(250'000) + CacheModel(300'000);
    const double dt = now_s() - t0;
    sink_ = acc;
    return dt;
  }

 private:
  static constexpr std::size_t kLevels = 3, kSets = 8192, kWays = 8;
  static constexpr std::uint64_t kKeyMask = 0xfffffff;

  static std::uint64_t Next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  static std::uint64_t Chains(long steps) {
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (long i = 0; i < steps; ++i) {
      a = a * 3 + b;
      b ^= c >> 3;
      c += d * 5;
      d ^= e << 1;
      e += f ^ a;
      f = f * 7 + g;
      g ^= h >> 2;
      h += a ^ c;
    }
    return a + b + c + d + e + f + g + h;
  }
  std::uint64_t Search(long steps) const {
    std::uint64_t x = 7, acc = 0;
    for (long i = 0; i < steps; ++i) {
      const auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                       static_cast<std::uint32_t>(Next(x)));
      acc += static_cast<std::uint64_t>(it - sorted_.begin());
    }
    return acc;
  }
  std::uint64_t Sort(int reps) {
    for (int r = 0; r < reps; ++r) {
      scratch_ = unsorted_;
      std::sort(scratch_.begin(), scratch_.end());
    }
    return scratch_[scratch_.size() / 2];
  }
  std::uint64_t Lookup(long steps) const {
    std::uint64_t x = 9, acc = 0;
    for (long i = 0; i < steps; ++i) {
      const auto it = map_.find(Next(x) & kKeyMask);
      if (it != map_.end()) acc += it->second;
    }
    return acc;
  }
  /// Three levels of 8-way LRU sets (move to front), skewed line stream.
  std::uint64_t CacheModel(long steps) {
    std::uint64_t x = 12345, hits = 0;
    for (long i = 0; i < steps; ++i) {
      Next(x);
      const std::uint64_t line =
          (x & 0xff) < 200 ? (x >> 20) % 20'000 : (x >> 20) % 4'000'000;
      const std::size_t set_index = line * 0x9E3779B97F4A7C15ull >> 51;
      for (std::size_t lv = 0; lv < kLevels; ++lv) {
        std::uint64_t* set = &tags_[(lv * kSets + set_index) * kWays];
        std::size_t way = 0;
        while (way < kWays && set[way] != line) ++way;
        const bool hit = way < kWays;
        for (way = hit ? way : kWays - 1; way > 0; --way)
          set[way] = set[way - 1];
        set[0] = line;
        if (hit) {
          ++hits;
          break;
        }
      }
    }
    return hits;
  }

  std::vector<std::uint32_t> sorted_, unsorted_, scratch_;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
  std::vector<std::uint64_t> tags_;
  volatile std::uint64_t sink_ = 0;
};

/// Times measured units, each bracketed by calibration rounds: a unit's
/// calibration is the mean of the rounds just before and just after it (the
/// round after one unit is the round before the next).
class CalibratedTimer {
 public:
  /// Call once, right before the first calibrated unit.
  void start() {
    cal_ = std::make_unique<Calibration>();
    last_ = cal_->run();
  }
  bool started() const { return cal_ != nullptr; }
  /// Calibration time of the unit that just ended.
  double after_unit() {
    const double next = cal_->run();
    const double cal = 0.5 * (last_ + next);
    last_ = next;
    rounds_.push_back(next);
    return cal;
  }
  const std::vector<double>& rounds() const { return rounds_; }

 private:
  std::unique_ptr<Calibration> cal_;
  double last_ = 0;
  std::vector<double> rounds_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double MinOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

constexpr int kMaxPasses = 200;
/// Set-ups repeated in a --setup-only process after its cold one.
constexpr int kWarmSetups = 5;

/// End-to-end pass: untraced. A pass runs every cell once; a repeated pass
/// must reproduce the first exactly (the simulator is deterministic). On a
/// harness workload one API-path pass (accesses/s) is followed by two
/// RunExperiment calls over the same cells (wall time), since a call is one
/// sample and a pass is one per cell. The first pass (on a harness workload,
/// the first of each kind) warms up and is not timed; every later unit (a
/// cell, or a RunExperiment call) is timed between calibration rounds.
void EndToEnd(const Workload& w, const std::string& root, const RunOptions& opt,
              double seconds, Result* res) {
  const bool twin = !opt.force_fail_cell.empty();
  // One cold set-up, reported as measured; setup_s comes from --setup-only
  // processes (run.py).
  Setup s;
  DoSetup(w, root, opt.seed, twin, &s, nullptr, -1);
  const double cold_setup_s = s.total_s();

  const std::size_t n = w.cells.size();
  // Per timed unit: host seconds, and the same at reference speed.
  std::vector<double> walls, walls_ref;  // RunExperiment calls
  std::vector<std::vector<double>> cell_s(n), run_s(n), cell_ref(n),
      run_ref(n);
  std::vector<CellOutcome> first;
  const int warmup_passes = w.via_harness ? 2 : 1;
  CalibratedTimer timer;
  double peak_rss_mb = 0;
  const double t_start = now_s();
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    if (pass == warmup_passes) timer.start();
    const bool timed = timer.started();
    if (w.via_harness && pass % 3 != 0) {
      // RunExperiment allocates its own kernel; free ours first so its
      // arrays land on the same (recycled) addresses and its cells match the
      // API-path cells bit for bit.
      s.reset();
      const double t0 = now_s();
      const std::vector<harness::CellResult> cells =
          harness::RunExperiment(HarnessSpec(w, opt.seed), false);
      const double dt = now_s() - t0;
      if (timed) {
        walls.push_back(dt);
        walls_ref.push_back(AtReference(dt, timer.after_unit()));
      }
      for (std::size_t i = 0; i < n; ++i)
        res->cell(w.cells[i].label + " pass " + std::to_string(pass),
                  {{i < cells.size() && SameAsHarness(cells[i], first[i]),
                    "RunExperiment differs from the API path"}});
    } else {
      if (!s.kernel) DoSetup(w, root, opt.seed, twin, &s, nullptr, -1);
      for (std::size_t i = 0; i < n; ++i) {
        const Cell& cell = w.cells[i];
        const double t0 = now_s();
        CellOutcome o = RunCell(s, cell, Mode::kPlain, opt, nullptr, -1);
        const double dt = now_s() - t0;
        if (timed) {
          const double cal = timer.after_unit();
          cell_s[i].push_back(dt);
          run_s[i].push_back(o.run_s);
          cell_ref[i].push_back(AtReference(dt, cal));
          run_ref[i].push_back(AtReference(o.run_s, cal));
        }
        if (pass == 0) first.push_back(o);
        res->cell(cell.label + " pass " + std::to_string(pass),
                  {{o.verified, "Kernel::verify failed"},
                   {SameResult(first[i], o), "differs from pass 0"}});
      }
    }
    // The high-water mark after set-up and the warm-up pass, before the
    // calibration loop allocates: later passes add only allocator drift
    // (glibc raises its mmap threshold once a large block is freed), which
    // would make the figure depend on how many passes fit into --seconds.
    if (pass + 1 == warmup_passes) peak_rss_mb = PeakRssMiB();
    // Start another pass only if it is expected to end in time.
    const double elapsed = now_s() - t_start;
    if (pass + 1 >= 2 * warmup_passes &&
        elapsed + elapsed / (pass + 1) > seconds)
      break;
  }

  // Best of the timed units, per cell. The calibration takes out the host's
  // slow phases, which last longer than a unit; other tenants only ever slow
  // a unit down, so the fastest unit takes out the shorter spells.
  double cells_ref = 0, runs_ref = 0, cells_raw = 0, runs_raw = 0;
  std::uint64_t accesses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    accesses += first[i].counters.accesses;
    cells_ref += MinOf(cell_ref[i]);
    runs_ref += MinOf(run_ref[i]);
    cells_raw += MinOf(cell_s[i]);
    runs_raw += MinOf(run_s[i]);
  }
  const double acc = static_cast<double>(accesses);
  const double wall_ref = w.via_harness ? MinOf(walls_ref) : cells_ref;
  const double wall_raw = w.via_harness ? MinOf(walls) : cells_raw;
  res->metric("wall_ref_s", wall_ref, "s");
  res->metric("sim_accesses_per_ref_s", ratio(acc, runs_ref), "accesses/s");
  res->metric("peak_rss_mb", peak_rss_mb, "MiB");
  // As measured, for the report: these carry the host's swings.
  res->metric("raw_wall_s", wall_raw, "s");
  res->metric("raw_sim_accesses_per_s", ratio(acc, runs_raw), "accesses/s");
  res->metric("raw_cold_setup_s", cold_setup_s, "s");
  res->metric("cal_s", Median(timer.rounds()), "s");
  res->samples = {{"wall_s", walls}, {"cal_s", timer.rounds()}};
  for (std::size_t i = 0; i < n; ++i) {
    res->samples.push_back({"cell_s." + w.cells[i].label, cell_s[i]});
    res->samples.push_back({"run_s." + w.cells[i].label, run_s[i]});
  }
  std::fprintf(stderr,
               "perfbench: %s end-to-end: set-up %.4f s, %zu timed API "
               "passes, %zu timed RunExperiment calls, wall %.3f s at "
               "reference speed (%.3f s as measured), calibration median "
               "%.4f s\n",
               w.name.c_str(), cold_setup_s, cell_s.front().size(),
               walls.size(),
               wall_ref, wall_raw, Median(timer.rounds()));
}

/// Per-layer split: untraced, timed, native and recorded passes.
void PerLayer(const Workload& w, const std::string& root,
              const RunOptions& opt, const std::string& spans_path,
              Result* res) {
  SpanLog spans(w.name);
  const int top = spans.begin("workload/" + w.name);

  std::vector<harness::CellResult> harness_cells;
  double harness_s = 0;
  if (w.via_harness) {
    const int sp = spans.begin("harness/RunExperiment", top);
    harness_cells = harness::RunExperiment(HarnessSpec(w, opt.seed), false);
    harness_s = spans.end(sp);
  }

  Setup s;
  DoSetup(w, root, opt.seed, !opt.force_fail_cell.empty(), &s, &spans, top);

  // Untraced reference, the timed run and the native floor, cell by cell:
  // back to back, so the host's load drifts as little as possible between
  // the runs that bench.timer_overhead_pct compares.
  int pass = spans.begin("pass/untraced+timed+native", top);
  runtime::ThreadPool pool(*s.topo, 1);
  std::vector<CellOutcome> plain, timed;
  std::vector<double> native(w.cells.size(), 0.0);
  double native_s = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    plain.push_back(RunCell(s, cell, Mode::kPlain, opt, &spans, pass));
    res->cell(cell.label + " untraced",
              {{plain.back().verified, "Kernel::verify failed"}});
    if (w.via_harness)
      res->cell(cell.label + " RunExperiment",
                {{i < harness_cells.size() &&
                      SameAsHarness(harness_cells[i], plain.back()),
                  "differs from the API path"}});
    timed.push_back(RunCell(s, cell, Mode::kTimed, opt, &spans, pass));
    res->cell(cell.label + " timed",
              {{timed.back().verified, "Kernel::verify failed"},
               {SameResult(plain[i], timed.back()), "differs from untraced"}});
    native[i] = RunNative(s, pool, cell, opt.seed, &spans, pass);
    native_s += native[i];
  }
  spans.end(pass);

  // Recorder on (the cost of --trace / --metrics-json). The ring is capped
  // so a 1,024-core machine does not allocate 1.6 GB of event slots; what
  // does not fit is counted in trace.dropped_events.
  pass = spans.begin("pass/recorder", top);
  const std::size_t per_worker = std::clamp<std::size_t>(
      (std::size_t{1} << 21) /
          static_cast<std::size_t>(s.topo->num_threads()),
      1024, trace::Recorder::kDefaultCapacity);
  for (auto& [sockets, engine] : s.engines) engine->enable_tracing(per_worker);
  std::vector<CellOutcome> recorded;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    recorded.push_back(RunCell(s, cell, Mode::kRecorded, opt, &spans, pass));
    res->cell(cell.label + " recorded",
              {{recorded.back().verified, "Kernel::verify failed"},
               {SameResult(plain[i], recorded.back()),
                "differs from untraced"}});
  }
  spans.end(pass);
  spans.end(top);

  // --- sums over cells ---
  double plain_run = 0, timed_run = 0, rec_run = 0, plain_verify = 0,
         verify_s = 0;
  SchedTimes st;
  sim::Counters c;
  std::uint64_t strands = 0, events = 0, dropped = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    plain_run += plain[i].run_s;
    plain_verify += plain[i].verify_s;
    timed_run += timed[i].run_s;
    rec_run += recorded[i].run_s;
    verify_s += timed[i].verify_s;
    st += timed[i].sched;
    c += timed[i].counters;
    strands += timed[i].strands;
    events += recorded[i].trace_events;
    dropped += recorded[i].trace_dropped;
  }

  res->metric("machine.topology_s", s.topology_s, "s");
  res->metric("kernels.prepare_s", s.prepare_s, "s");
  res->metric("kernels.verify_s", verify_s, "s");
  res->metric("kernels.native_s", native_s, "s");
  res->count("kernels.strands", strands);

  const auto secs = [](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  res->count("sched.add_calls", st.add_calls);
  res->metric("sched.add_s", secs(st.add_ns), "s");
  res->count("sched.get_calls", st.get_calls);
  res->metric("sched.get_s", secs(st.get_ns), "s");
  res->metric("sched.get_hit_ratio",
              ratio(static_cast<double>(st.get_hits),
                    static_cast<double>(st.get_calls)),
              "fraction");
  res->count("sched.done_calls", st.done_calls);
  res->metric("sched.done_s", secs(st.done_ns), "s");

  const double self_s = timed_run - st.total_s();
  res->metric("sim.engine_ctor_s", s.engine_ctor_s, "s");
  res->metric("sim.run_s", timed_run, "s");
  res->metric("sim.self_s", self_s, "s");
  res->metric("sim.machinery_s", self_s - native_s, "s");
  res->metric("sim.host_ns_per_access",
              1e9 * ratio(timed_run, static_cast<double>(c.accesses)), "ns");
  res->metric("sim.host_us_per_strand",
              1e6 * ratio(timed_run, static_cast<double>(strands)), "us");
  res->count("sim.accesses", c.accesses);
  res->count("sim.writes", c.writes);
  res->count("sim.filter_skips", c.filter_skips);
  res->count("sim.fiber_switches", c.fiber_switches);
  res->count("sim.windows", c.windows_executed);
  res->count("sim.window_merges", c.window_merges);
  res->count("sim.pump_passes", c.pump_passes);
  res->count("sim.inline_strands", c.inline_strands);
  // Levels 1..4 on every workload; a 3-level machine has no level 4, so
  // nothing probes it and both counts are 0 there.
  for (std::size_t d = 1; d <= 4; ++d) {
    const sim::LevelCounters lc =
        d < c.level.size() ? c.level[d] : sim::LevelCounters{};
    res->count("sim.level" + std::to_string(d) + ".hits", lc.hits);
    res->count("sim.level" + std::to_string(d) + ".misses", lc.misses);
  }
  res->count("sim.dram_reads", c.dram_reads);
  res->count("sim.remote_dram", c.remote_dram_accesses);
  res->metric("sim.queue_wait_cycles", static_cast<double>(c.queue_wait_cycles),
              "cycles");

  res->metric("trace.overhead_pct", 100.0 * (ratio(rec_run, plain_run) - 1),
              "%");
  res->count("trace.events", events);
  res->count("trace.dropped_events", dropped);
  res->metric("bench.timer_overhead_pct",
              100.0 * (ratio(timed_run, plain_run) - 1), "%");

  // RunExperiment builds one engine per cell; the API path built one per
  // bandwidth setting.
  const double harness_setup =
      s.topology_s + s.prepare_s +
      s.engine_ctor_s * static_cast<double>(w.cells.size()) /
          static_cast<double>(s.engines.size());
  res->metric("harness.self_s",
              w.via_harness ? harness_s - harness_setup - plain_run -
                                  plain_verify
                            : 0.0,
              "s");

  // Simulated results. The full-bandwidth WS and SB cells carry the plain
  // names on every workload; every cell is also listed under "cells".
  std::uint64_t ws_misses = 0, sb_misses = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const bool full = cell.sockets == 0 || cell.sockets == w.bw_sweep.front();
    if (!full) continue;
    const CellOutcome& o = plain[i];
    res->metric("model.makespan_cycles." + cell.sched,
                static_cast<double>(o.makespan), "cycles");
    res->count("model.llc_misses." + cell.sched, o.counters.llc_misses());
    res->metric("model.empty_s." + cell.sched, o.empty_s, "s");
    (cell.sched == "WS" ? ws_misses : sb_misses) = o.counters.llc_misses();
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellOutcome& t = timed[i];
    res->cells.push_back(
        {{"makespan_cycles", static_cast<double>(plain[i].makespan)},
         {"llc_misses", static_cast<double>(plain[i].counters.llc_misses())},
         {"empty_s", plain[i].empty_s},
         {"strands", static_cast<double>(t.strands)},
         {"accesses", static_cast<double>(t.counters.accesses)},
         {"untraced_run_s", plain[i].run_s},
         {"run_s", t.run_s},
         {"sched_s", t.sched.total_s()},
         {"get_calls", static_cast<double>(t.sched.get_calls)},
         {"get_hits", static_cast<double>(t.sched.get_hits)},
         {"native_s", native[i]},
         {"verify_s", t.verify_s},
            {"recorded_run_s", recorded[i].run_s}});
  }
  res->metric("model.llc_miss_reduction_pct",
              100.0 * (1 - ratio(static_cast<double>(sb_misses),
                                 static_cast<double>(ws_misses))),
              "%");

  if (!spans_path.empty() && !spans.write(spans_path, opt.seed))
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, root = ".", spans_path, force_fail, force_mismatch;
  std::int64_t seed = 1, trace = 0, n = 0;
  double seconds = 10;
  bool setup_only = false;
  Cli cli("sbs_perfbench", "repository benchmark: one workload per process");
  cli.add_string("workload", &workload,
                 "fig4-samplesort | fig6-rrg | huge64-samplesort");
  cli.add_int("seed", &seed, "input and scheduler seed");
  cli.add_double("seconds", &seconds, "end-to-end measuring time");
  cli.add_int("trace", &trace, "0: end-to-end pass; 1: per-layer split");
  cli.add_string("root", &root, "repository root (for configs/)");
  cli.add_string("spans", &spans_path, "traced pass: write spans here");
  cli.add_flag("setup-only", &setup_only,
               "time one cold set-up and exit (run.py's set-up samples)");
  cli.add_int("n", &n, "problem size override (self-test only)");
  cli.add_string("force-fail-cell", &force_fail,
                 "self-test: verify this cell on an unrun kernel");
  cli.add_string("force-mismatch-cell", &force_mismatch,
                 "self-test: traced run of this cell uses another seed");
  if (!cli.parse(argc, argv)) return 0;

  Workload w;
  if (!MakeWorkload(workload, n, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.force_fail_cell = force_fail;
  opt.force_mismatch_cell = force_mismatch;

  Result res;
  if (setup_only) {
    Setup s;
    // The first set-up in a process is cold: it pays for fresh pages, which
    // the host's phases move by up to 2.5x. The repeats reuse the freed
    // memory and time the set-up's own work, each beside a calibration
    // round; setup_s is their median at reference speed.
    DoSetup(w, root, opt.seed, false, &s, nullptr, -1);
    const double cold_s = s.total_s();
    Calibration cal;
    cal.run();  // pays for the loop's own cold code and data
    std::vector<double> warm, warm_ref, rounds;
    for (int rep = 0; rep < kWarmSetups; ++rep) {
      DoSetup(w, root, opt.seed, false, &s, nullptr, -1);
      rounds.push_back(cal.run());
      warm.push_back(s.total_s());
      warm_ref.push_back(AtReference(warm.back(), rounds.back()));
    }
    res.metric("setup_s", Median(warm_ref), "s");
    res.metric("raw_setup_s", Median(warm), "s");
    res.metric("raw_cold_setup_s", cold_s, "s");
    res.metric("cal_s", Median(rounds), "s");
  } else if (trace == 0)
    EndToEnd(w, root, opt, seconds, &res);
  else
    PerLayer(w, root, opt, spans_path, &res);
  res.metric("cell_fail_ratio",
             ratio(static_cast<double>(res.failures.size()),
                   static_cast<double>(res.attempted)),
             "fraction");

  JsonWriter out;
  out.begin_object()
      .kv("workload", w.name)
      .kv("seed", opt.seed)
      .kv("trace", trace)
      .kv("host_cpus", static_cast<std::uint64_t>(
                           std::thread::hardware_concurrency()))
      .kv("build_type", SBS_BENCH_BUILD_TYPE)
      .kv("n", static_cast<std::uint64_t>(w.params.n))
      .kv("attempted", res.attempted)
      .kv("failed", static_cast<std::uint64_t>(res.failures.size()));
  out.key("failures").begin_array();
  for (const std::string& f : res.failures) out.value(f);
  out.end_array();
  out.key("metrics").begin_object();
  for (const Result::Metric& m : res.metrics) {
    out.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit)
        .end_object();
  }
  out.end_object();
  out.key("cells").begin_array();
  for (std::size_t i = 0; i < res.cells.size(); ++i) {
    out.begin_object().kv("label", w.cells[i].label);
    for (const auto& [k, v] : res.cells[i]) out.kv(k, v);
    out.end_object();
  }
  out.end_array();
  out.key("samples").begin_object();
  for (const auto& [name, values] : res.samples) {
    out.key(name).begin_array();
    for (double v : values) out.value(v);
    out.end_array();
  }
  out.end_object().end_object();
  std::printf("%s\n", out.str().c_str());
  return res.failures.empty() ? 0 : 1;
}
