// Soak-memory gate: a clock service's host memory must not grow with
// simulated time.  Each duration runs bench_service's soak at --scale 1 (8
// ranks, HCA3 resyncs every 20 s under the default leave/rejoin plan) in a
// forked child process, so no run inherits another's heap, and reports the
// child's peak RSS.  A probe process samples the engine's live state every
// 10 simulated seconds: processes not yet finished plus events queued
// (timers included).  That count is deterministic, so it is bounded exactly
// as well: state a wait leaves behind after it resolved (a process sleeping
// until a crash time or a liveness deadline, a parked half, an uncancelled
// timer) makes it grow with simulated time and fails the gate.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocksync/service.hpp"
#include "simmpi/world.hpp"

namespace hcs::simmpi {
namespace {

constexpr int kRanks = 8;  // clocksync::service_machine()
constexpr double kProbeEvery = 10.0;  // simulated seconds

struct SoakStats {
  std::uint64_t peak_rss = 0;  // bytes (VmHWM)
  std::uint64_t max_live = 0;  // live processes + queued events, worst probe
};

// Peak resident set size (VmHWM) in bytes; 0 where /proc is missing.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

sim::Task<void> probe(sim::Simulation& s, double duration, std::uint64_t* max_live) {
  for (double t = kProbeEvery / 2; t < duration; t += kProbeEvery) {
    co_await s.delay(t - s.now());
    const std::uint64_t live = s.processes_spawned() - s.processes_finished() + s.events_pending();
    *max_live = std::max(*max_live, live);
  }
}

// Child process body: bench_service --scale 1 --duration `duration` --seed 1.
SoakStats soak(double duration) {
  fault::FaultPlan plan;
  clocksync::add_service_churn(plan, duration);
  clocksync::ServiceParams params;
  params.label = "hca3/300/skampi_offset/100";
  params.duration = duration;
  params.interval = 20.0;

  World world(clocksync::service_machine(), 1, plan, 1);
  std::vector<clocksync::ServiceLog> logs(static_cast<std::size_t>(world.size()));
  world.launch([&](RankCtx& ctx) {
    return clocksync::service_rank(params, logs[static_cast<std::size_t>(ctx.rank())], ctx);
  });
  SoakStats stats;
  world.sim_of(0).spawn(probe(world.sim_of(0), duration, &stats.max_live));
  world.run();
  if (logs[0].history.size() < static_cast<std::size_t>(duration / params.interval) / 2) {
    throw std::logic_error("the soak did not resync");
  }
  stats.peak_rss = peak_rss_bytes();
  return stats;
}

// The soak's stats, measured in a fresh child process; peak_rss 0 when the
// child failed.
SoakStats soak_in_child(double duration) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) return {};
  if (pid == 0) {
    close(fds[0]);
    SoakStats stats;
    int code = 0;
    try {
      stats = soak(duration);
    } catch (...) {
      code = 1;
    }
    const bool sent = write(fds[1], &stats, sizeof(stats)) == sizeof(stats);
    _exit(sent ? code : 1);
  }
  close(fds[1]);
  SoakStats stats;
  const bool got = read(fds[0], &stats, sizeof(stats)) == sizeof(stats);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return stats;
}

TEST(SoakMemory, PeakRssStaysFlatFrom30To90SimulatedMinutes) {
  const SoakStats short_run = soak_in_child(1800.0);
  const SoakStats long_run = soak_in_child(5400.0);
  ASSERT_GT(short_run.peak_rss, 0u);
  ASSERT_GT(long_run.peak_rss, 0u);
  const double mib = 1024.0 * 1024.0;
  std::printf("peak RSS: %.1f MiB at 1800 s, %.1f MiB at 5400 s; live state: %llu, %llu\n",
              static_cast<double>(short_run.peak_rss) / mib,
              static_cast<double>(long_run.peak_rss) / mib,
              static_cast<unsigned long long>(short_run.max_live),
              static_cast<unsigned long long>(long_run.max_live));
  EXPECT_LE(static_cast<double>(long_run.peak_rss), 1.2 * static_cast<double>(short_run.peak_rss));
  // Per rank: its process and a sleep or timer, plus messages in flight.
  constexpr std::uint64_t kPerRank = 4;
  EXPECT_LE(short_run.max_live, kPerRank * kRanks);
  EXPECT_LE(long_run.max_live, kPerRank * kRanks);
}

}  // namespace
}  // namespace hcs::simmpi
