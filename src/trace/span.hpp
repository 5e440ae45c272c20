// Scoped-span instrumentation macros over the active tracer.
//
//   HCS_TRACE_SCOPE(Sync, rank, "learn_clock_model", other_rank);
//   HCS_TRACE_INSTANT(Sync, rank, "resync");
//
// The first argument is a Category member without its `k` prefix (Sim, Net,
// Coll, Sync, Bench, App).  The optional trailing argument is the event's
// free integer payload (bytes, partner rank, ...).  The event name must be a
// string literal or otherwise outlive the tracer.
//
// Cost model: with no tracer installed each macro is one pointer load and a
// branch (bench_micro_sim verifies the hot paths stay flat).
#pragma once

#include "trace/tracer.hpp"

namespace hcs::trace {

/// RAII span: captures now() at construction, records a complete event over
/// [t0, now()] at destruction.  Null tracer = fully inert.  Safe to hold
/// across co_await suspension points (the span then covers virtual time).
class Span {
 public:
  Span(Tracer* tracer, Category cat, int rank, const char* name, std::int64_t arg = 0)
      : tracer_(tracer) {
    if (tracer_) {
      cat_ = cat;
      rank_ = rank;
      name_ = name;
      arg_ = arg;
      t0_ = tracer_->now();
    }
  }
  ~Span() {
    if (tracer_) tracer_->record_complete(rank_, cat_, name_, t0_, tracer_->now() - t0_, arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_ = "";
  double t0_ = 0.0;
  std::int64_t arg_ = 0;
  int rank_ = 0;
  Category cat_ = Category::kApp;
};

}  // namespace hcs::trace

#define HCS_TRACE_CONCAT_IMPL(a, b) a##b
#define HCS_TRACE_CONCAT(a, b) HCS_TRACE_CONCAT_IMPL(a, b)

#define HCS_TRACE_SCOPE(cat, rank, ...)                                              \
  const ::hcs::trace::Span HCS_TRACE_CONCAT(hcs_trace_span_, __LINE__)(              \
      ::hcs::trace::active_tracer(), ::hcs::trace::Category::HCS_TRACE_CONCAT(k, cat), \
      (rank), __VA_ARGS__)

#define HCS_TRACE_INSTANT(cat, rank, ...)                                             \
  do {                                                                                \
    if (::hcs::trace::Tracer* hcs_trace_t = ::hcs::trace::active_tracer()) {          \
      hcs_trace_t->record_instant((rank), ::hcs::trace::Category::HCS_TRACE_CONCAT(k, cat), \
                                  __VA_ARGS__);                                       \
    }                                                                                 \
  } while (0)
