#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hcs::trace {

IntervalTracer::IntervalTracer(int rank, vclock::ClockPtr clock) : rank_(rank), clock_(std::move(clock)) {
  if (!clock_) throw std::invalid_argument("Tracer: null clock");
}

std::size_t IntervalTracer::begin_event(const std::string& name, int iteration) {
  Interval iv;
  iv.event = name;
  iv.iteration = iteration;
  iv.start = clock_->now();
  intervals_.push_back(std::move(iv));
  return intervals_.size() - 1;
}

void IntervalTracer::end_event(std::size_t index) {
  if (index >= intervals_.size()) throw std::out_of_range("IntervalTracer::end_event: bad index");
  intervals_[index].end = clock_->now();
}

std::vector<GanttRow> gantt_rows(const std::vector<IntervalTracer>& tracers, const std::string& event,
                                 int iteration) {
  std::vector<GanttRow> rows;
  rows.reserve(tracers.size());
  double min_start = std::numeric_limits<double>::infinity();
  for (const IntervalTracer& tracer : tracers) {
    for (const Interval& iv : tracer.intervals()) {
      if (iv.event == event && iv.iteration == iteration) {
        GanttRow row;
        row.rank = tracer.rank();
        row.start = iv.start;
        row.duration = iv.duration();
        rows.push_back(row);
        min_start = std::min(min_start, iv.start);
        break;
      }
    }
  }
  for (GanttRow& row : rows) row.start -= min_start;
  return rows;
}

}  // namespace hcs::trace
