// Asserts a bench binary refuses bad command lines before doing any work.
//
// Every bench binary parses its options through bench/common.cpp's
// parse_common, which must exit with status 2 and a message naming the
// offending option and value for:
//   * an unknown option ("--frobnicate 1");
//   * a numeric option that is not wholly a number ("--jobs 2x",
//     "--seed abc", "--scale 0.5abc");
//   * a count that does not fit an int ("--jobs 4294967297").
// A binary that accepted one of these would run its full workload instead,
// which the ctest time limit turns into a failure too.
//
//   usage: check_bench_rejects <path to bench binary> [--no-fault-flags]
//                              ["--option value" ...]
//
// --no-fault-flags adds --fault, --fault-file and --fault-seed to the common
// cases, each of which must exit 2 as an unknown option: a binary whose
// Worlds ignore the fault plan must not pretend to inject faults.  Given
// "--option value" arguments (a binary's own numeric flags), each is one bad
// invocation instead of the common cases above, and must likewise exit 2
// naming the option and the value.
#include <sys/wait.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

namespace {

struct BadInvocation {
  std::string args;                  // appended to the binary path
  std::vector<std::string> needles;  // each must appear in the output
};

// Runs `command` through the shell with stderr merged into stdout.
int run(const std::string& command, std::string& output) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, n);
  return pclose(pipe);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: check_bench_rejects <bench binary> [--no-fault-flags] "
                 "[\"--option value\" ...]\n";
    return 2;
  }
  std::vector<BadInvocation> cases = {
      {"--frobnicate 1", {"--frobnicate"}},
      {"--jobs 2x", {"--jobs", "'2x'"}},
      {"--jobs 4294967297", {"--jobs", "'4294967297'"}},
      {"--seed abc", {"--seed", "'abc'"}},
      {"--scale 0.5abc", {"--scale", "'0.5abc'"}},
  };
  int first = 2;
  if (argc > 2 && std::string(argv[2]) == "--no-fault-flags") {
    cases.push_back({"--fault drop:p=0.1", {"unknown option --fault "}});
    cases.push_back({"--fault-file faults.txt", {"unknown option --fault-file "}});
    cases.push_back({"--fault-seed 3", {"unknown option --fault-seed "}});
    first = 3;
  }
  if (argc > first) cases.clear();
  for (int i = first; i < argc; ++i) {
    const std::string args = argv[i];
    const std::size_t space = args.find(' ');
    if (space == std::string::npos) {
      std::cerr << "check_bench_rejects: expected \"--option value\", got '" << args << "'\n";
      return 2;
    }
    std::string quoted = "'";
    quoted.append(args, space + 1).push_back('\'');
    cases.push_back({args, {args.substr(0, space), quoted}});
  }
  int failures = 0;
  for (const BadInvocation& c : cases) {
    const std::string command = "'" + std::string(argv[1]) + "' " + c.args;
    std::string output;
    const int status = run(command, output);
    if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 2) {
      std::cerr << "check_bench_rejects: `" << command << "` ended with status " << status
                << " (expected exit code 2)\n--- output ---\n" << output;
      ++failures;
      continue;
    }
    for (const std::string& needle : c.needles) {
      if (output.find(needle) == std::string::npos) {
        std::cerr << "check_bench_rejects: `" << command << "` does not mention " << needle
                  << "\n--- output ---\n" << output;
        ++failures;
      }
    }
  }
  if (failures > 0) return 1;
  std::cout << "ok: " << argv[1] << " rejects " << cases.size() << " bad command lines\n";
  return 0;
}
