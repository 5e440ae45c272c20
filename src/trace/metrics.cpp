#include "trace/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "util/table.hpp"

namespace hcs::trace {

HistogramMetric::HistogramMetric(std::size_t sample_cap, MetricUnit unit)
    : cap_(sample_cap), unit_(unit) {
  if (sample_cap < 2) throw std::invalid_argument("HistogramMetric: sample cap must be >= 2");
}

void HistogramMetric::observe(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  retain_sample(x);
}

void HistogramMetric::retain_sample(double x) {
  if (++since_last_ < stride_) return;
  since_last_ = 0;
  if (samples_.size() == cap_) {
    // Decimate: keep every other retained sample, double the stride.  Keeps
    // the reservoir an (approximately) uniform, deterministic subsample.
    std::size_t w = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) samples_[w++] = samples_[i];
    samples_.resize(w);
    stride_ *= 2;
  }
  samples_.push_back(x);
}

void HistogramMetric::merge_from(const HistogramMetric& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (const double x : other.samples_) retain_sample(x);
}

double HistogramMetric::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q outside [0, 100]");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::uint32_t detail::next_metric_slot() noexcept {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }
Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }
HistogramMetric& MetricsRegistry::histogram(const std::string& name, MetricUnit unit) {
  return histograms_
      .try_emplace(name, HistogramMetric(HistogramMetric::kDefaultSampleCap, unit))
      .first->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  resolved_.clear();  // the handles' references died with the metrics
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].inc(c.value());
  for (const auto& [name, g] : other.gauges_) gauges_[name].set(g.value());
  for (const auto& [name, h] : other.histograms_) {
    histograms_.try_emplace(name, HistogramMetric(HistogramMetric::kDefaultSampleCap, h.unit()))
        .first->second.merge_from(h);
  }
}

void install_metrics(MetricsRegistry* registry) noexcept { detail::tl_active_metrics = registry; }

ScopedMetrics::ScopedMetrics(MetricsRegistry* registry) : previous_(detail::tl_active_metrics) {
  detail::tl_active_metrics = registry;
}
ScopedMetrics::~ScopedMetrics() { detail::tl_active_metrics = previous_; }

void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry) {
  os << "name,kind,unit,count,value,mean,p50,p90,p99,min,max\n";
  for (const auto& [name, c] : registry.counters()) {
    os << name << ",counter,," << c.value() << "," << c.value() << ",,,,,,\n";
  }
  for (const auto& [name, g] : registry.gauges()) {
    os << name << ",gauge,,1," << g.value() << ",,,,,,\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    os << name << ",histogram," << (h.unit() == MetricUnit::kSeconds ? "s" : "") << ","
       << h.count() << "," << h.sum() << "," << h.mean() << "," << h.percentile(50) << ","
       << h.percentile(90) << "," << h.percentile(99) << "," << h.min() << "," << h.max()
       << "\n";
  }
}

void print_metrics_summary(std::ostream& os, const MetricsRegistry& registry,
                           double unit_scale) {
  if (registry.empty()) {
    os << "(no metrics recorded)\n";
    return;
  }
  if (!registry.counters().empty() || !registry.gauges().empty()) {
    util::Table table({"metric", "value"});
    for (const auto& [name, c] : registry.counters()) {
      table.add_row({name, std::to_string(c.value())});
    }
    for (const auto& [name, g] : registry.gauges()) table.add_row({name, util::fmt(g.value())});
    table.print(os);
  }
  if (!registry.histograms().empty()) {
    os << "\n";
    util::Table table({"histogram", "count", "mean", "p50", "p90", "p99", "min", "max"});
    for (const auto& [name, h] : registry.histograms()) {
      const double s = h.unit() == MetricUnit::kSeconds ? unit_scale : 1.0;
      table.add_row({name, std::to_string(h.count()), util::fmt(h.mean() * s),
                     util::fmt(h.percentile(50) * s), util::fmt(h.percentile(90) * s),
                     util::fmt(h.percentile(99) * s), util::fmt(h.min() * s),
                     util::fmt(h.max() * s)});
    }
    table.print(os);
    os << "(seconds-valued histogram columns scaled by " << unit_scale
       << "; unitless histograms printed raw)\n";
  }
}

}  // namespace hcs::trace
