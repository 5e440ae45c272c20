// Window handoff contract (sim::WindowGate): each open() runs every worker's
// body exactly once; the workers see all the coordinator wrote before
// open(), and once close() returns the coordinator sees all the workers
// wrote in the window.  stop() joins the crew whether its workers are
// spinning or parked, and lets a window still open finish first.  The
// sanitizer jobs run this file, so the ordering claims are race-checked.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "sim/window_gate.hpp"

namespace hcs::sim {
namespace {

// Busy work whose result depends on every step, so a worker's share of a
// window takes time proportional to `steps`.
std::uint64_t churn(std::uint64_t x, std::uint64_t steps) {
  for (std::uint64_t s = 0; s < steps; ++s) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

// Plain, non-atomic per-worker state: only the gate orders its accesses.
struct Crew {
  explicit Crew(int workers)
      : input(static_cast<std::size_t>(workers)),
        steps(static_cast<std::size_t>(workers)),
        output(static_cast<std::size_t>(workers)),
        runs(static_cast<std::size_t>(workers)) {}
  std::vector<std::uint64_t> input, steps, output, runs;
  void body(int i) {
    const auto k = static_cast<std::size_t>(i);
    output[k] = churn(input[k], steps[k]);
    ++runs[k];
  }
};

// Runs `windows` windows with fresh inputs and a random skew, the
// coordinator doing its own share in between, and checks each window's
// results before the next one opens.  Now and then the coordinator sleeps
// before opening, long enough for spinning workers to park.
void run_windows(Rng& rng, WindowGate& gate, Crew& crew, int windows) {
  const std::size_t n = crew.input.size();
  std::vector<std::uint64_t> expected(n);
  for (int w = 0; w < windows; ++w) {
    for (std::size_t k = 0; k < n; ++k) {
      crew.input[k] = rng.next_u64();
      crew.steps[k] = rng.uniform_index(4) == 0 ? rng.uniform_index(20000) : rng.uniform_index(50);
    }
    if (rng.uniform_index(50) == 0) std::this_thread::sleep_for(std::chrono::milliseconds(3));
    gate.open();
    for (std::size_t k = 0; k < n; ++k) expected[k] = churn(crew.input[k], crew.steps[k]);
    gate.close();
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(crew.output[k], expected[k]) << "window " << w << ", worker " << k;
      ASSERT_EQ(crew.runs[k], static_cast<std::uint64_t>(w + 1)) << "window " << w;
    }
  }
}

TEST(WindowGate, EveryWindowsWritesAreVisibleBeforeTheNextOpens) {
  Rng rng(20);
  for (int round = 0; round < 12; ++round) {
    const int workers = 1 + static_cast<int>(rng.uniform_index(7));
    const bool park_only = rng.uniform_index(3) == 0;
    Crew crew(workers);
    const auto body = [&crew](int i) { crew.body(i); };
    if (park_only) {
      WindowGate gate(workers, body, /*spin=*/false);
      run_windows(rng, gate, crew, 300);
    } else {
      WindowGate gate(workers, body);  // spins when the crew fits the host
      run_windows(rng, gate, crew, 300);
    }
    if (HasFatalFailure()) return;
  }
}

TEST(WindowGate, StopJoinsSpinningWorkers) {
  Rng rng(1);
  Crew crew(3);
  WindowGate gate(3, [&crew](int i) { crew.body(i); }, /*spin=*/true);
  run_windows(rng, gate, crew, 5);
  gate.stop();  // the workers are still inside their spin budget
  gate.stop();
  EXPECT_EQ(crew.runs, std::vector<std::uint64_t>(3, 5));
}

TEST(WindowGate, StopJoinsParkedWorkers) {
  for (const bool spin : {false, true}) {
    Rng rng(2);
    Crew crew(3);
    WindowGate gate(3, [&crew](int i) { crew.body(i); }, spin);
    run_windows(rng, gate, crew, 5);
    // Far longer than the spin budget: every worker is parked by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.stop();
    EXPECT_EQ(crew.runs, std::vector<std::uint64_t>(3, 5)) << "spin=" << spin;
  }
}

TEST(WindowGate, StopFinishesAnOpenWindowAndNeverStartsAnother) {
  Crew crew(4);
  crew.steps.assign(4, 5000);
  {
    WindowGate gate(4, [&crew](int i) { crew.body(i); });
    gate.open();
  }  // the destructor stops the crew with the window still open
  EXPECT_EQ(crew.runs, std::vector<std::uint64_t>(4, 1));
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(crew.output[k], churn(0, 5000));
}

TEST(WindowGate, StopBeforeAnyWindowRunsNoBody) {
  Crew crew(2);
  WindowGate gate(2, [&crew](int i) { crew.body(i); });
  gate.stop();
  EXPECT_EQ(crew.runs, std::vector<std::uint64_t>(2, 0));
}

}  // namespace
}  // namespace hcs::sim
