// Parallel trial execution with sequential semantics.
//
// The paper's point clouds (Figs. 3-9) are built from many *independent*
// mpiruns: every trial owns its World, Simulation and RNG seed, so nothing
// but the final tables couples them.  TrialRunner exploits that: it fans N
// trials across J worker threads and guarantees the observable output is
// byte-identical for any J, including J=1.
//
// How determinism survives parallelism:
//   * Trials are claimed from a shared atomic counter (no work stealing, no
//     re-ordering of claims); which worker runs a trial never influences the
//     trial, because each trial's inputs are only (index, seed).
//   * Results land in a vector slot keyed by trial index, so callers iterate
//     them in trial order no matter the completion order.
//   * Observability is thread-scoped (trace::active_tracer/active_metrics
//     are thread_local).  If the launching thread has sinks installed, each
//     trial runs with a *private* Tracer/MetricsRegistry installed on its
//     worker, and the runner folds those into the parent sinks in
//     trial-index order afterwards (Tracer::absorb /
//     MetricsRegistry::merge_from) — exactly the stream a sequential run
//     would have produced.
//   * A trial that throws poisons the run: workers stop claiming new trials
//     and the lowest-index exception is rethrown on the launching thread
//     (the error a sequential run would have hit first).
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace hcs::runner {

/// Identity of one trial; the only inputs a trial body may depend on.
struct Trial {
  int index = 0;            // 0-based trial index
  std::uint64_t seed = 0;   // base_seed + index (the "mpirun i" convention)
};

/// Worker-thread count resolution: 0 = one per hardware thread (>= 1).
int resolve_jobs(int jobs) noexcept;

class TrialRunner {
 public:
  /// `jobs` <= 0 selects one worker per hardware thread.
  explicit TrialRunner(int jobs = 1) : jobs_(resolve_jobs(jobs)) {}

  int jobs() const noexcept { return jobs_; }

  /// Runs fn(trial) for every trial index in [0, ntrials) and returns the
  /// results in trial-index order.  fn must be callable from any thread and
  /// touch only per-trial state (plus read-only shared inputs).
  template <typename Fn>
  auto map(int ntrials, std::uint64_t base_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const Trial&>> {
    using R = std::invoke_result_t<Fn&, const Trial&>;
    static_assert(std::is_default_constructible_v<R>,
                  "TrialRunner::map: trial result type must be default-constructible");
    // std::vector<bool> packs its elements into shared words, so two workers
    // writing neighbouring slots race; bool results go through bytes.
    using Slot = std::conditional_t<std::is_same_v<R, bool>, unsigned char, R>;
    std::vector<Slot> results(static_cast<std::size_t>(ntrials > 0 ? ntrials : 0));
    run_indexed(ntrials, base_seed, [&](const Trial& trial) {
      results[static_cast<std::size_t>(trial.index)] = fn(trial);
    });
    if constexpr (std::is_same_v<R, bool>) {
      return std::vector<bool>(results.begin(), results.end());
    } else {
      return results;
    }
  }

  /// Like map, but for trial bodies without a result (side effects into
  /// per-trial slots owned by the caller).
  template <typename Fn>
  void for_each(int ntrials, std::uint64_t base_seed, Fn&& fn) {
    run_indexed(ntrials, base_seed, [&](const Trial& trial) { fn(trial); });
  }

 private:
  void run_indexed(int ntrials, std::uint64_t base_seed,
                   const std::function<void(const Trial&)>& body);

  int jobs_;
};

}  // namespace hcs::runner
