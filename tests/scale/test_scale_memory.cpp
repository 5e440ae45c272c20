// Linear-memory gate: the host memory a World needs per rank must stay flat
// as the rank count grows.  Each size runs Alg. 4's communicator creation
// (the node split, then the leaders split) on Titan nodes in a forked child
// process, so no size inherits another's freed heap, and reports the VmRSS
// growth across World::launch and World::run — the same quantity the
// benchmark driver reports as launch + run RSS.  A p^2 structure (a member
// list per rank, or every rank holding all 2p split values) makes the bytes
// per rank grow linearly with p and fails the gate.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace hcs::simmpi {
namespace {

constexpr int kCoresPerNode = 16;  // Titan

// Current resident set size (VmRSS) in bytes; 0 where /proc is missing.
std::uint64_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

// Child process body: VmRSS growth across launch + run of the two splits.
std::uint64_t split_rss_growth(int nodes) {
  World world(topology::titan().with_nodes(nodes), 1);
  const World::RankFn program = [](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    const Comm node = co_await comm.split_shared_node();
    const Comm leaders = co_await comm.split(node.rank() == 0 ? 0 : Comm::kUndefined, comm.rank());
    if (node.rank() == 0 && !leaders.valid()) throw std::logic_error("leader left out");
  };
  const std::uint64_t before = current_rss_bytes();
  world.launch(program);
  world.run();
  const std::uint64_t after = current_rss_bytes();
  return after > before ? after - before : 0;
}

// Bytes of VmRSS growth per rank at `nodes` Titan nodes, measured in a fresh
// child process; -1 when the child failed.
double bytes_per_rank(int nodes) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const pid_t pid = fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    close(fds[0]);
    std::uint64_t growth = 0;
    int code = 0;
    try {
      growth = split_rss_growth(nodes);
    } catch (...) {
      code = 1;
    }
    const bool sent = write(fds[1], &growth, sizeof(growth)) == sizeof(growth);
    _exit(sent ? code : 1);
  }
  close(fds[1]);
  std::uint64_t growth = 0;
  const bool got = read(fds[0], &growth, sizeof(growth)) == sizeof(growth);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return static_cast<double>(growth) / (nodes * kCoresPerNode);
}

TEST(ScaleMemory, BytesPerRankStayFlatFrom2kTo32kRanks) {
  const double at_2k = bytes_per_rank(2048 / kCoresPerNode);
  ASSERT_GT(at_2k, 0.0);
  for (const int ranks : {8192, 32768}) {
    const double per_rank = bytes_per_rank(ranks / kCoresPerNode);
    ASSERT_GT(per_rank, 0.0) << ranks << " ranks";
    EXPECT_LE(per_rank, 1.5 * at_2k)
        << ranks << " ranks: " << per_rank << " B/rank against " << at_2k << " at 2048";
    std::printf("%d ranks: %.0f B/rank (2048 ranks: %.0f)\n", ranks, per_rank, at_2k);
  }
}

}  // namespace
}  // namespace hcs::simmpi
