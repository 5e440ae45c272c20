// Metrics registry: counters, gauges and sample histograms that the
// simulator, the network model and the sync algorithms report into.
//
// Like the tracer, a registry is installed per-thread (install_metrics /
// ScopedMetrics write a thread_local slot); with none installed every
// HCS_METRIC_* macro is a thread-local load and a branch.  Thread scoping
// lets runner::TrialRunner hand each concurrent trial a private registry and
// merge them in trial-index order afterwards (merge_from), and lets the
// sharded World install each shard's registry on the thread running it; the
// record path stays lock-free.  Every reporter, hot or not, goes through a
// MetricHandle, one per call site: the handle looks its name up once in each
// registry it meets and the registry keeps the result in a slot of its own,
// so switching between registries (a sharded World's coordinating thread
// does so for every shard it drains) costs no lookup, and the per-message
// cost with metrics ON is a few loads and adds, not a map lookup.
//
// Histograms keep exact count/sum/min/max and a capacity-bounded sample
// reservoir (stride decimation: when full, every other retained sample is
// discarded and the sampling stride doubles — deterministic, no RNG).
// Percentiles use the nearest-rank method over the retained samples.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace hcs::trace {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Unit of a histogram's observations.  Seconds-valued histograms get their
/// summary columns rendered in microseconds; unitless ones (ratios, counts
/// per round, r^2) are printed raw.
enum class MetricUnit : std::uint8_t { kSeconds, kNone };

class HistogramMetric {
 public:
  static constexpr std::size_t kDefaultSampleCap = 1 << 16;

  explicit HistogramMetric(std::size_t sample_cap = kDefaultSampleCap,
                           MetricUnit unit = MetricUnit::kSeconds);

  void observe(double x);

  MetricUnit unit() const noexcept { return unit_; }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double mean() const noexcept { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Nearest-rank percentile (q in [0, 100]) over the retained samples.
  double percentile(double q) const;

  /// Retained samples, in observation order (decimated once past the cap).
  const std::vector<double>& samples() const noexcept { return samples_; }

  /// Folds `other` into this histogram: exact aggregates (count/sum/min/max)
  /// merge exactly; other's retained samples are replayed through this
  /// histogram's reservoir in their observation order.  Merging per-trial
  /// histograms in trial-index order is deterministic for any thread count.
  void merge_from(const HistogramMetric& other);

 private:
  void retain_sample(double x);

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> samples_;
  std::size_t cap_;
  MetricUnit unit_;
  std::uint64_t stride_ = 1;  // record every stride_-th observation
  std::uint64_t since_last_ = 0;
};

template <typename Metric>
class MetricHandle;

/// Named metrics, iterated in name order (deterministic exports).  References
/// returned by counter()/gauge()/histogram() stay valid until clear() or the
/// registry's destruction (std::map nodes are stable).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `unit` only takes effect on first creation of `name`.
  HistogramMetric& histogram(const std::string& name, MetricUnit unit = MetricUnit::kSeconds);

  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  const std::map<std::string, HistogramMetric>& histograms() const noexcept {
    return histograms_;
  }

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// Folds `other` into this registry: counters add, gauges take other's
  /// value (the later writer wins, as in a sequential run), histograms merge
  /// via HistogramMetric::merge_from.  Used by runner::TrialRunner to fold
  /// per-trial registries back into the parent in trial-index order.
  void merge_from(const MetricsRegistry& other);

 private:
  template <typename Metric>
  friend class MetricHandle;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
  // The metric each MetricHandle resolved to here, indexed by the handle's
  // slot; null until the handle's first use with this registry.
  std::vector<void*> resolved_;
};

namespace detail {
inline constinit thread_local MetricsRegistry* tl_active_metrics = nullptr;
/// A process-unique MetricHandle slot, never 0.
std::uint32_t next_metric_slot() noexcept;
}  // namespace detail

/// The calling thread's active registry (nullptr = metrics off, the
/// default).  The slot is thread_local: installing a registry affects only
/// the current thread, and a registry must not be shared between threads
/// without external synchronization.
inline MetricsRegistry* active_metrics() noexcept { return detail::tl_active_metrics; }
void install_metrics(MetricsRegistry* registry) noexcept;

/// RAII install/uninstall, restoring the previous registry.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// One named metric of the calling thread's active registry.  Declare it
/// `constinit` with static storage, one per call site and shared by every
/// thread (the HCS_METRIC_* macros do).  Its first use takes a slot; each
/// registry maps that slot to the metric the first get() against it looked
/// up, so later calls cost a bounds check and a load whichever registry is
/// installed, and metrics off cost a thread-local load and a branch.
template <typename Metric>
class MetricHandle {
 public:
  constexpr explicit MetricHandle(const char* name,
                                  MetricUnit unit = MetricUnit::kSeconds) noexcept
      : name_(name), unit_(unit) {}

  /// The metric in the active registry (created on first use), or nullptr
  /// when none is installed.
  Metric* get() {
    MetricsRegistry* registry = active_metrics();
    if (registry == nullptr) return nullptr;
    const std::uint32_t slot = slot_.load(std::memory_order_relaxed);
    if (slot < registry->resolved_.size()) {
      if (void* metric = registry->resolved_[slot]) return static_cast<Metric*>(metric);
    }
    return resolve(*registry);
  }

 private:
  Metric* resolve(MetricsRegistry& registry) {
    std::uint32_t slot = slot_.load(std::memory_order_relaxed);
    if (slot == 0) {
      const std::uint32_t mine = detail::next_metric_slot();
      // Two threads may race to the first use; both keep the winner's slot.
      if (slot_.compare_exchange_strong(slot, mine, std::memory_order_relaxed)) slot = mine;
    }
    Metric* metric;
    if constexpr (std::is_same_v<Metric, Counter>) {
      metric = &registry.counter(name_);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      metric = &registry.gauge(name_);
    } else {
      metric = &registry.histogram(name_, unit_);
    }
    if (registry.resolved_.size() <= slot) registry.resolved_.resize(slot + 1, nullptr);
    registry.resolved_[slot] = metric;
    return metric;
  }

  const char* name_;
  MetricUnit unit_;
  std::atomic<std::uint32_t> slot_{0};  // 0 = not taken yet
};

using CounterHandle = MetricHandle<Counter>;
using HistogramHandle = MetricHandle<HistogramMetric>;

/// CSV dump: one row per metric with kind, count/value and distribution
/// columns (mean/p50/p90/p99/min/max for histograms).
void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry);

/// Human-readable end-of-run summary (util::Table): counters & gauges first,
/// then histogram percentiles.  `unit_scale` multiplies the columns of
/// seconds-valued histograms (1e6 renders them as microseconds); unitless
/// histograms print raw.
void print_metrics_summary(std::ostream& os, const MetricsRegistry& registry,
                           double unit_scale = 1e6);

}  // namespace hcs::trace

// Each expansion declares its own handle: one per call site.
#define HCS_METRIC_RECORD_IMPL(kind, op, ...)                                           \
  do {                                                                                  \
    static constinit ::hcs::trace::MetricHandle<::hcs::trace::kind> hcs_h{__VA_ARGS__}; \
    if (::hcs::trace::kind* hcs_m = hcs_h.get()) hcs_m->op;                             \
  } while (0)

#define HCS_METRIC_INC(name) HCS_METRIC_RECORD_IMPL(Counter, inc(), name)
#define HCS_METRIC_ADD(name, n) \
  HCS_METRIC_RECORD_IMPL(Counter, inc(static_cast<std::uint64_t>(n)), name)
#define HCS_METRIC_SET(name, v) HCS_METRIC_RECORD_IMPL(Gauge, set(v), name)
#define HCS_METRIC_OBSERVE(name, x) HCS_METRIC_RECORD_IMPL(HistogramMetric, observe(x), name)
#define HCS_METRIC_OBSERVE_RAW(name, x) \
  HCS_METRIC_RECORD_IMPL(HistogramMetric, observe(x), name, ::hcs::trace::MetricUnit::kNone)
