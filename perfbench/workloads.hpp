// The benchmark's three closed-loop workloads and the run that measures
// them. Each workload builds real deployments of both stacks, warms them,
// and then runs one unit of work (one counter op, or one Grid-in-a-Box
// flow) at a time for a given client.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;  // counter_read | counter_write | gridbox_x509
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  // per-layer ledger instead of end-to-end metrics
  std::filesystem::path workdir;  // fresh storage roots go under it
};

/// Runs the benchmark, prints a human-readable report followed by one JSON
/// result line, and returns the process exit code (0 only when every
/// reply check passed).
int run_benchmark(const RunConfig& config);

}  // namespace perfbench
