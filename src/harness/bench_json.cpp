#include "harness/bench_json.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/json.h"

namespace sbs::harness {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Taken during static initialization, i.e. when the bench process starts.
const double kProcessStart = now_s();

}  // namespace

void BenchReport::add(const ExperimentSpec& spec,
                      const std::vector<CellResult>& results,
                      const std::string& group) {
  Group g;
  g.label = group;
  g.kernel = spec.kernel;
  g.machine = spec.machine;
  g.n = static_cast<std::uint64_t>(spec.params.n);
  g.repetitions = spec.repetitions;
  g.sigma = spec.sb.sigma;
  g.mu = spec.sb.mu;
  g.cells = results;
  groups_.push_back(std::move(g));
  cell_workers_ = std::max(cell_workers_, CellWorkers(results.size()));
}

bool BenchReport::write(const std::string& path) const {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", bench_name_);
  w.kv("schema_version", 2);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  w.kv("host_wall_s", now_s() - kProcessStart);
  w.kv("host_cpus", HostCpus());
  w.kv("cell_workers", cell_workers_);
  // ru_maxrss is in KiB on Linux.
  w.kv("children_peak_rss_mb",
       static_cast<double>(children.ru_maxrss) / 1024.0);
  w.key("groups").begin_array();
  for (const auto& g : groups_) {
    w.begin_object();
    if (!g.label.empty()) w.kv("label", g.label);
    w.kv("kernel", g.kernel);
    w.kv("machine", g.machine);
    w.kv("n", g.n);
    w.kv("repetitions", g.repetitions);
    w.kv("sigma", g.sigma);
    w.kv("mu", g.mu);
    w.key("cells").begin_array();
    for (const auto& c : g.cells) {
      w.begin_object();
      w.kv("scheduler", c.scheduler);
      w.kv("bw_sockets", c.bw_sockets);
      w.kv("total_sockets", c.total_sockets);
      w.kv("active_s", c.active_s);
      w.kv("overhead_s", c.overhead_s);
      w.kv("empty_s", c.empty_s);
      w.kv("wall_s", c.wall_s);
      w.kv("llc_misses", c.llc_misses);
      w.kv("llc_hits", c.llc_hits);
      w.kv("dram_reads", c.dram_reads);
      w.kv("queue_wait_cycles", c.queue_wait_cycles);
      w.kv("strands", c.strands);
      w.kv("empty_wakeups", c.empty_wakeups);
      w.kv("verified", c.verified);
      w.kv("host_s", c.host_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string out = path.empty() ? default_path() : path;
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) return false;
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace sbs::harness
