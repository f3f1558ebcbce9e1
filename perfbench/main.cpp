// perfbench: the repository benchmark's workload runner. run.py builds it
// and passes its arguments through; see README.md.
//
//   perfbench --workload <counter_read|counter_write|gridbox_x509>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) try {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.workdir.empty() || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n");
    return 2;
  }
  return perfbench::run_benchmark(cfg);
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 1;
}
