#include "harness/experiment.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <type_traits>

#include "trace/analysis.h"
#include "trace/chrome_trace.h"
#include "util/assert.h"
#include "util/stats.h"
#include "verify/invariants.h"

namespace sbs::harness {

std::string WithPathSuffix(const std::string& path,
                           const std::string& suffix) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + suffix;
  return path.substr(0, dot) + "." + suffix + path.substr(dot);
}

namespace {

/// True when this process runs no thread but the caller's ("Threads:" in
/// /proc/self/status; false when that cannot be read).
bool SingleThreaded() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + 8) == 1;
  return false;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One (bandwidth, scheduler) point of the matrix.
struct CellJob {
  int sockets = 0;
  std::string scheduler;
  std::string label;  ///< names the cell in metrics lines and failures
};

/// What a cell hands back to RunExperiment.
struct CellOutput {
  CellResult result;
  std::string metrics_line;  ///< empty unless spec.metrics_path is set
};

CellOutput RunCell(const ExperimentSpec& spec, const machine::Topology& topo,
                   kernels::Kernel& kernel, const CellJob& job,
                   int total_sockets, bool one_cell) {
  const double t0 = now_s();
  sim::SimParams sim_params;
  sim_params.num_threads = spec.num_threads;
  for (int s = 0; s < job.sockets; ++s)
    sim_params.memory.allowed_sockets.push_back(s);
  sim::SimEngine engine(topo, sim_params);

  const bool tracing = !spec.trace_path.empty() || !spec.metrics_path.empty();
  if (tracing) engine.enable_tracing();

  CellOutput out;
  CellResult& cell = out.result;
  cell.scheduler = job.scheduler;
  cell.bw_sockets = job.sockets;
  cell.total_sockets = total_sockets;

  std::vector<double> active, overhead, empty, wall, misses, hits, reads,
      queue;
  for (int rep = 0; rep < spec.repetitions; ++rep) {
    sched::SchedulerSpec ss;
    ss.name = job.scheduler;
    ss.seed = spec.seed + static_cast<std::uint64_t>(rep);
    ss.sb = spec.sb;
    std::unique_ptr<runtime::Scheduler> sched = sched::MakeScheduler(ss);
    verify::VerifyingScheduler* checker = nullptr;
    if (spec.verify_invariants) {
      auto wrapped = verify::Wrap(std::move(sched));
      checker = wrapped.get();
      sched = std::move(wrapped);
    }

    const sim::SimResult r = engine.run(*sched, kernel.make_root());
    if (checker != nullptr && !checker->ok()) {
      SBS_CHECK_MSG(false, (job.label + ": " + checker->report()).c_str());
    }
    if (tracing && rep == 0) {
      // Only the first repetition is exported: each run resets the rings.
      if (!spec.trace_path.empty()) {
        trace::TraceInfo info;
        info.engine = "sim";
        info.scheduler = job.scheduler;
        info.machine = spec.machine;
        info.label = job.label;
        const std::string path =
            one_cell ? spec.trace_path
                     : WithPathSuffix(spec.trace_path,
                                      job.scheduler + "_" +
                                          std::to_string(job.sockets) + "bw");
        SBS_CHECK_MSG(trace::WriteChromeTrace(*engine.recorder(), path, info),
                      "failed to write --trace output");
      }
      if (!spec.metrics_path.empty()) {
        trace::EngineOverheads ov;
        ov.windows_executed = r.counters.windows_executed;
        ov.window_merges = r.counters.window_merges;
        ov.pump_passes = r.counters.pump_passes;
        ov.fiber_switches = r.counters.fiber_switches;
        ov.inline_strands = r.counters.inline_strands;
        out.metrics_line = trace::MetricsJsonLine(
            trace::Analyze(*engine.recorder()), job.label, &ov);
      }
    }
    active.push_back(r.stats.avg_active_s());
    overhead.push_back(r.stats.avg_overhead_s());
    empty.push_back(r.stats.avg_empty_s());
    wall.push_back(r.stats.wall_s);
    misses.push_back(static_cast<double>(r.counters.llc_misses()));
    hits.push_back(static_cast<double>(r.counters.llc_hits()));
    reads.push_back(static_cast<double>(r.counters.dram_reads));
    queue.push_back(static_cast<double>(r.counters.queue_wait_cycles));
    cell.strands = r.stats.total_strands();
    cell.empty_wakeups = r.stats.total_empty_wakeups();
    cell.sched_stats = r.sched_stats;
    if (spec.verify && rep == 0) {
      cell.verified = kernel.verify();
      SBS_CHECK_MSG(cell.verified,
                    (job.label + ": kernel verification failed").c_str());
    }
  }
  cell.active_s = trimmed_mean(active);
  cell.overhead_s = trimmed_mean(overhead);
  cell.empty_s = trimmed_mean(empty);
  cell.wall_s = trimmed_mean(wall);
  cell.llc_misses = trimmed_mean(misses);
  cell.llc_hits = trimmed_mean(hits);
  cell.dram_reads = trimmed_mean(reads);
  cell.queue_wait_cycles = trimmed_mean(queue);
  cell.host_s = now_s() - t0;
  return out;
}

// Pipe format of a CellOutput: trivially copyable fields as their raw bytes,
// strings as a u64 length and their bytes. Every double (NaN included) and
// every u64 survives exactly, which JSON numbers would not guarantee.
template <class Visit>
void VisitFields(CellOutput& o, Visit&& visit) {
  CellResult& c = o.result;
  visit(c.scheduler);
  visit(c.bw_sockets);
  visit(c.total_sockets);
  visit(c.active_s);
  visit(c.overhead_s);
  visit(c.empty_s);
  visit(c.wall_s);
  visit(c.llc_misses);
  visit(c.llc_hits);
  visit(c.dram_reads);
  visit(c.queue_wait_cycles);
  visit(c.strands);
  visit(c.empty_wakeups);
  visit(c.verified);
  visit(c.sched_stats);
  visit(c.host_s);
  visit(o.metrics_line);
}

std::string Encode(CellOutput o) {
  std::string bytes;
  const auto put = [&bytes](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  VisitFields(o, [&](auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>) {
      const std::uint64_t n = field.size();
      put(&n, sizeof n);
      put(field.data(), field.size());
    } else {
      static_assert(std::is_trivially_copyable_v<T>);
      put(&field, sizeof field);
    }
  });
  return bytes;
}

bool Decode(const std::string& bytes, CellOutput* o) {
  std::size_t pos = 0;
  bool ok = true;
  const auto take = [&](void* p, std::size_t n) {
    ok = ok && bytes.size() - pos >= n;
    if (!ok) return;
    std::memcpy(p, bytes.data() + pos, n);
    pos += n;
  };
  VisitFields(*o, [&](auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>) {
      std::uint64_t n = 0;
      take(&n, sizeof n);
      ok = ok && bytes.size() - pos >= n;
      if (!ok) return;
      field.assign(bytes, pos, static_cast<std::size_t>(n));
      pos += static_cast<std::size_t>(n);
    } else {
      take(&field, sizeof field);
    }
  });
  return ok && pos == bytes.size();
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

int Reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return status;
}

std::string DescribeExit(int status) {
  if (status == -1) return "could not be reaped";
  if (WIFSIGNALED(status))
    return "died by signal " + std::to_string(WTERMSIG(status)) + " (" +
           strsignal(WTERMSIG(status)) + ")";
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  return "sent a malformed result";
}

/// Runs every cell in a forked child, at most `workers` at once, and hands
/// each child's output to `arrive` as it comes in. A child computes its cell
/// with `run`, writes the encoded output to its pipe and _exits; it never
/// returns into the caller. The parent reads each pipe to EOF before it
/// reaps that child.
template <class Run, class Arrive>
void RunInChildren(const std::vector<CellJob>& jobs, int workers,
                   const Run& run, const Arrive& arrive) {
  struct Child {
    pid_t pid;
    int fd;
    std::size_t cell;
    std::string bytes;
  };
  std::vector<Child> live;
  const auto fail = [&live, &jobs](std::size_t cell, const std::string& why) {
    for (const Child& c : live) kill(c.pid, SIGKILL);
    for (const Child& c : live) {
      close(c.fd);
      Reap(c.pid);
    }
    live.clear();
    SBS_CHECK_MSG(false, ("cell " + jobs[cell].label +
                          " failed in its child process: " + why)
                             .c_str());
  };

  std::size_t next = 0;
  while (next < jobs.size() || !live.empty()) {
    while (next < jobs.size() &&
           live.size() < static_cast<std::size_t>(workers)) {
      int fds[2];
      if (pipe2(fds, O_CLOEXEC) != 0) fail(next, "pipe failed");
      // Buffered output would otherwise be written once by each process.
      std::fflush(nullptr);
      const pid_t pid = fork();
      if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        fail(next, "fork failed");
      }
      if (pid == 0) {
        close(fds[0]);
        int rc = 1;
        try {
          rc = WriteAll(fds[1], Encode(run(next))) ? 0 : 1;
        } catch (...) {
          rc = 2;
        }
        std::fflush(nullptr);
        _exit(rc);
      }
      close(fds[1]);
      live.push_back({pid, fds[0], next++, {}});
    }

    std::vector<pollfd> polls;
    for (const Child& c : live) polls.push_back({c.fd, POLLIN, 0});
    if (poll(polls.data(), polls.size(), -1) < 0) {
      if (errno == EINTR) continue;
      fail(live.front().cell, "poll failed");
    }
    // Back to front, so erasing live[k] leaves the unvisited indices valid.
    for (std::size_t k = polls.size(); k-- > 0;) {
      if (polls[k].revents == 0) continue;
      char buf[1 << 16];
      const ssize_t got = read(live[k].fd, buf, sizeof buf);
      if (got > 0) {
        live[k].bytes.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      Child child = std::move(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      close(child.fd);
      const int status = Reap(child.pid);
      CellOutput out;
      if (got < 0) fail(child.cell, "reading its pipe failed");
      if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
          !Decode(child.bytes, &out))
        fail(child.cell, DescribeExit(status));
      arrive(child.cell, std::move(out));
    }
  }
}

}  // namespace

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int CellWorkers(std::size_t cells) {
  if (cells <= 1 || !SingleThreaded()) return 1;
  return static_cast<int>(
      std::min<std::size_t>(cells, static_cast<std::size_t>(HostCpus())));
}

std::vector<CellResult> RunExperiment(const ExperimentSpec& spec,
                                      bool progress) {
  const machine::Topology topo(machine::Preset(spec.machine));
  const int total_sockets =
      static_cast<int>(topo.nodes_at_depth(1).size());

  std::vector<int> sweep = spec.bandwidth_sockets;
  if (sweep.empty()) sweep.push_back(total_sockets);

  auto kernel = kernels::MakeKernel(spec.kernel, spec.params);
  kernel->prepare(spec.seed);

  const std::string prefix =
      spec.label_prefix.empty() ? "" : spec.label_prefix + "/";
  std::vector<CellJob> jobs;
  for (int sockets : sweep) {
    SBS_CHECK(sockets >= 1 && sockets <= total_sockets);
    for (const auto& sched_name : spec.schedulers)
      jobs.push_back({sockets, sched_name,
                      prefix + spec.kernel + "@" + spec.machine + "/" +
                          sched_name + "/" + std::to_string(sockets) + "bw"});
  }

  const auto run = [&](std::size_t i) {
    return RunCell(spec, topo, *kernel, jobs[i], total_sockets,
                   jobs.size() == 1);
  };
  // Cells may finish out of order; progress lines go out in cell order.
  std::vector<std::optional<CellOutput>> outputs(jobs.size());
  std::size_t reported = 0;
  const auto arrive = [&](std::size_t i, CellOutput out) {
    outputs[i] = std::move(out);
    for (; reported < jobs.size() && outputs[reported]; ++reported) {
      const CellResult& cell = outputs[reported]->result;
      if (!progress) continue;
      std::fprintf(stderr,
                   "  [%s] %d/%d sockets, %-6s: active %.4fs overhead "
                   "%.4fs L3-miss %.2fM%s\n",
                   spec.kernel.c_str(), cell.bw_sockets, total_sockets,
                   cell.scheduler.c_str(), cell.active_s, cell.overhead_s,
                   cell.llc_misses / 1e6, cell.verified ? "" : "  UNVERIFIED");
    }
  };

  const int workers = CellWorkers(jobs.size());
  if (workers == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) arrive(i, run(i));
  } else {
    RunInChildren(jobs, workers, run, arrive);
  }

  std::vector<CellResult> results;
  bool truncate = spec.metrics_truncate;
  for (auto& out : outputs) {
    if (!spec.metrics_path.empty()) {
      SBS_CHECK_MSG(
          trace::AppendJsonlLine(spec.metrics_path, out->metrics_line,
                                 truncate),
          "failed to write --metrics-json output");
      truncate = false;
    }
    results.push_back(std::move(out->result));
  }
  return results;
}

Table MakeFigureTable(const std::string& title,
                      const std::vector<CellResult>& results) {
  Table table(title);
  table.set_header({"bandwidth", "scheduler", "active(s)", "overhead(s)",
                    "empty(s)", "total(s)", "L3 misses"});
  for (const auto& cell : results) {
    table.add_row({fmt_percent(cell.bw_fraction(), 0) + " b/w",
                   cell.scheduler, fmt_double(cell.active_s, 4),
                   fmt_double(cell.overhead_s, 4),
                   fmt_double(cell.empty_s, 4),
                   fmt_double(cell.active_s + cell.overhead_s, 4),
                   fmt_millions(cell.llc_misses, 2)});
  }
  return table;
}

}  // namespace sbs::harness
