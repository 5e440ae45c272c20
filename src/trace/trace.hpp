// Minimal MPI tracing library (paper §V-C, Fig. 10).
//
// Records (enter, leave) intervals of named events per rank using an
// arbitrary Clock — the paper's point is that the *choice* of clock (local
// clock_gettime / gettimeofday vs. a synchronized global clock) decides
// whether a Gantt view of a short MPI_Allreduce is interpretable at all.
#pragma once

#include <string>
#include <vector>

#include "vclock/clock.hpp"

namespace hcs::trace {

struct Interval {
  std::string event;
  int iteration = 0;
  double start = 0.0;  // clock units of the recording clock
  double end = 0.0;
  double duration() const { return end - start; }
};

/// One per rank; not shared.
class IntervalTracer {
 public:
  IntervalTracer(int rank, vclock::ClockPtr clock);

  /// Begins an interval and returns its index (for end_event).
  std::size_t begin_event(const std::string& name, int iteration);
  void end_event(std::size_t index);

  int rank() const { return rank_; }
  const std::vector<Interval>& intervals() const { return intervals_; }
  const vclock::ClockPtr& clock() const { return clock_; }

 private:
  int rank_;
  vclock::ClockPtr clock_;
  std::vector<Interval> intervals_;
};

/// One row of the paper's Gantt charts: the start (normalized to the
/// earliest start over all ranks) and the duration of one event instance.
struct GanttRow {
  int rank = 0;
  double start = 0.0;     // seconds after the earliest plotted start
  double duration = 0.0;  // seconds
};

/// Extracts the rows for `event` at `iteration` across all tracers,
/// normalizing the start times to the minimum (the paper's "normalized
/// time" axis).  Tracers must be ordered by rank.
std::vector<GanttRow> gantt_rows(const std::vector<IntervalTracer>& tracers, const std::string& event,
                                 int iteration);

}  // namespace hcs::trace
