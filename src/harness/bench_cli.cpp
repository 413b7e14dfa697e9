#include "harness/bench_cli.h"

namespace sbs::harness {

int BenchOptions::ScaleOfPreset(const std::string& preset) {
  const auto pos = preset.find("_s");
  if (pos == std::string::npos) return 1;
  const char* digits = preset.c_str() + pos + 2;
  if (*digits < '0' || *digits > '9') return 1;
  return std::atoi(digits);
}

bool ParseBenchOptions(int argc, char** argv, Cli& cli, BenchOptions* opts) {
  cli.add_flag("full", &opts->full,
               "paper-scale problem sizes and 10 repetitions");
  cli.add_int("n", &opts->n, "problem size override (elements / matrix order)");
  cli.add_int("reps", &opts->reps, "repetitions per cell (default 2; 10 with --full)");
  cli.add_string("machine", &opts->machine,
                 "machine preset (default per bench, usually xeon7560)");
  cli.add_string("csv", &opts->csv, "also write results as CSV to this path");
  cli.add_int("seed", &opts->seed, "input-generation seed");
  cli.add_double("sigma", &opts->sigma,
                 "space-bounded dilation parameter (default 0.5)");
  cli.add_double("mu", &opts->mu,
                 "space-bounded strand occupancy cap (default 0.2)");
  cli.add_int("threads", &opts->threads,
              "worker threads (-1 = all hardware threads)");
  cli.add_flag("no-verify", &opts->no_verify,
               "skip kernel output verification (otherwise only the "
               "first repetition of each cell is checked)");
  cli.add_flag("verify", &opts->verify,
               "check scheduler invariants on every run (serializes "
               "callbacks; use for correctness, not timing)");
  cli.add_string("trace", &opts->trace,
                 "write a Chrome trace of each cell's first repetition here");
  cli.add_string("metrics-json", &opts->metrics_json,
                 "append a JSONL metrics summary line per cell to this path");
  return cli.parse(argc, argv);
}

}  // namespace sbs::harness
