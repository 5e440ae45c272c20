// hcs_host_probe — a fixed amount of host work, timed.
//
// run.py runs it before every repetition and scales the repetition's times
// by (reference probe time / median probe time of the run), so that a change
// in the host's speed between runs (other tenants of a shared VM) cancels out
// while a change in the program's speed does not: the probe uses none of the
// repository's code. THREADS workers pull TASKS equal tasks from a shared
// counter, the same schedule shape as the workload it stands next to (four
// shard threads in lockstep: 4 threads, 4 tasks; 20 Worlds on 4 runner jobs:
// 4 threads, 20 tasks), so that one slow core delays both alike. A task
// chases a random cycle through the worker's own 16 MiB buffer with dependent
// arithmetic; the total work depends on THREADS only. The probe prints the
// elapsed seconds and a digest that keeps the work from being optimised away.
//
//   hcs_host_probe [THREADS [TASKS]]    (defaults 1 and THREADS)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

namespace {

constexpr std::size_t kWords = (16u << 20) / sizeof(std::uint64_t);
constexpr long kStepsPerWorker = 2000000;
constexpr int kMixesPerStep = 12;

std::uint64_t work(std::uint64_t seed, std::atomic<int>& tasks_left, long steps_per_task) {
  std::vector<std::uint64_t> next(kWords);
  for (std::size_t i = 0; i < kWords; ++i) next[i] = i;
  std::uint64_t s = seed;
  for (std::size_t i = kWords - 1; i > 0; --i) {  // Fisher-Yates with xorshift64
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap(next[i], next[s % (i + 1)]);
  }
  std::uint64_t at = 0, acc = 0;
  while (tasks_left.fetch_sub(1) > 0) {
    for (long k = 0; k < steps_per_task; ++k) {
      at = next[at];
      for (int j = 0; j < kMixesPerStep; ++j) acc = acc * 6364136223846793005ULL + at;
    }
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 1;
  const int tasks = argc > 2 ? std::atoi(argv[2]) : threads;
  if (threads < 1 || threads > 64 || tasks < threads || tasks > 4096) {
    std::fprintf(stderr, "usage: %s [THREADS 1-64 [TASKS THREADS-4096]]\n", argv[0]);
    return 2;
  }
  // hcs-lint: allow-next-line(wall-clock) host timing is what this probe measures
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::atomic<int> tasks_left{tasks};
  const long steps_per_task = kStepsPerWorker * threads / tasks;
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&digests, &tasks_left, steps_per_task, t] {
      digests[static_cast<std::size_t>(t)] =
          work(88172645463325252ULL + static_cast<unsigned>(t), tasks_left, steps_per_task);
    });
  }
  for (std::thread& th : pool) th.join();
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  std::uint64_t digest = 0;
  for (const std::uint64_t d : digests) digest ^= d;
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(digest));
  return 0;
}
