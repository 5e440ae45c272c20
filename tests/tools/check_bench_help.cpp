// Asserts a bench binary's --help output lists every flag it parses.
//
// All bench binaries parse the shared flag set (bench/common.hpp's
// kBenchFlags, which also drives --help and unknown-flag rejection), so this
// links the same table and greps the child's actual output for each entry:
// adding a flag to parse_common without documenting it — or breaking --help
// itself — fails ctest for every bench binary.  With --fault-flags the
// binary must also list kFaultFlags; without it, it must not mention --fault
// at all (a binary whose Worlds ignore the fault plan rejects those flags).
//
//   usage: check_bench_help <path to bench binary> [--fault-flags]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  const bool fault_flags = argc == 3 && std::string(argv[2]) == "--fault-flags";
  if (argc != 2 && !fault_flags) {
    std::cerr << "usage: check_bench_help <bench binary> [--fault-flags]\n";
    return 2;
  }
  const std::string cmd = std::string(argv[1]) + " --help";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) {
    std::cerr << "check_bench_help: cannot run: " << cmd << "\n";
    return 2;
  }
  std::string output;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, n);
  const int status = pclose(pipe);
  if (status != 0) {
    std::cerr << "check_bench_help: `" << cmd << "` exited with status " << status
              << " (expected 0)\n";
    return 1;
  }

  using hcs::bench::kBenchFlags;
  std::vector<hcs::bench::BenchFlag> expected(kBenchFlags,
                                              kBenchFlags + hcs::bench::kBenchFlagCount);
  if (fault_flags) {
    expected.insert(expected.end(), hcs::bench::kFaultFlags.begin(),
                    hcs::bench::kFaultFlags.end());
  }
  int wrong = 0;
  for (const hcs::bench::BenchFlag& f : expected) {
    const std::string flag = std::string("--") + f.name;
    if (output.find(flag) == std::string::npos) {
      std::cerr << "check_bench_help: --help output of " << argv[1] << " does not mention "
                << flag << "\n";
      ++wrong;
    }
  }
  if (!fault_flags && output.find("--fault") != std::string::npos) {
    std::cerr << "check_bench_help: --help output of " << argv[1]
              << " mentions --fault, which this binary does not apply\n";
    ++wrong;
  }
  if (wrong > 0) {
    std::cerr << "--- actual --help output ---\n" << output;
    return 1;
  }
  std::cout << "ok: " << expected.size() << " flags documented by " << argv[1] << " --help\n";
  return 0;
}
