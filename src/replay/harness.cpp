#include "replay/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "clocksync/accuracy.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/membership.hpp"
#include "clocksync/skampi_offset.hpp"
#include "replay/feed.hpp"
#include "simmpi/world.hpp"

namespace hcs::replay {

namespace {

// Client sampling is seeded off the World seed so different seeds exercise
// different client subsets; the mix constant keeps it uncorrelated with the
// World's own streams.
constexpr std::uint64_t kClientSeedMix = 0xabcdefULL;

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parse_hexf(const std::string& tok, const char* field) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == tok.c_str()) {
    throw std::invalid_argument(std::string("parse_outcome: bad ") + field + " value \"" + tok +
                                "\"");
  }
  return v;
}

// Churn-plan variant of the rank program: the founding cohort synchronizes
// over the membership view at time 0, a returning rank runs (only) its own
// re-admission sub-phase, and every rank serves the re-admissions it
// references — all rendezvous derived from the fault oracle, no cohort-wide
// accuracy collective (probe disagreement is the accuracy oracle under
// churn).  The churn supervisor re-invokes this program per incarnation;
// the last incarnation's outcome wins.
sim::Task<void> churn_scenario_rank(const Scenario* scenario, RankOutcome* outcomes,
                                    simmpi::RankCtx& ctx) {
  simmpi::World& world = ctx.world();
  const fault::FaultInjector* fault = world.fault_injector();
  const int me = ctx.rank();
  sim::Simulation& s = ctx.sim();
  const sim::Time entry = s.now();
  const int inc = fault->incarnation(me, entry);
  const std::vector<clocksync::ReadmitEvent> schedule = clocksync::readmit_schedule(world);
  RankOutcome& mine = outcomes[me];
  mine = RankOutcome{};  // a restart discards the departed incarnation's partial outcome
  clocksync::SKaMPIOffset oalg(scenario->accuracy_exchanges);
  clocksync::ReadmitPolicy policy;

  clocksync::SyncResult res;
  if (inc == 0) {
    simmpi::Comm view = simmpi::Comm::view_comm(world, me, 0.0);
    auto sync = clocksync::make_sync(scenario->sync_label);
    res = co_await sync->sync_clocks(view, ctx.base_clock());
  } else {
    const clocksync::ReadmitEvent event{entry, me, inc};
    simmpi::Comm view = simmpi::Comm::view_comm(world, me, entry);
    res = co_await clocksync::readmit(view, event, ctx.base_clock(), oalg, policy);
  }
  const vclock::ClockPtr clock = res.clock;
  mine.health = static_cast<int>(res.report.health);
  mine.points_used = res.report.points_used;
  mine.sync_end = s.now();

  for (const clocksync::ReadmitEvent& ev : schedule) {
    if (ev.at < entry || ev.rank == me) continue;
    if (fault->next_down(me, entry) <= ev.at) break;  // departed before then
    if (clocksync::readmit_reference(world, ev) != me) continue;
    // The serving side keeps its clock, and its report is always clean.
    simmpi::Comm view = simmpi::Comm::view_comm(world, me, ev.at);
    (void)co_await clocksync::readmit(view, ev, clock, oalg, policy);
  }

  mine.probes.reserve(kProbeTimes.size());
  for (const double t : kProbeTimes) mine.probes.push_back(clock->at_exact(t));
  mine.ran = true;
}

// The one rank program every scenario runs; a free coroutine (not a
// capturing lambda) so its frame owns stable copies/pointers for the whole
// run.  `outcomes` points at the caller's per-rank array: each rank writes
// only its own slot, which is safe under sharding (slots are disjoint and
// the vector is pre-sized).
sim::Task<void> scenario_rank(const Scenario* scenario, std::uint64_t seed,
                              RankOutcome* outcomes, simmpi::RankCtx& ctx) {
  const fault::FaultInjector* fault = ctx.world().fault_injector();
  if (fault != nullptr && fault->churn_active()) {
    co_return co_await churn_scenario_rank(scenario, outcomes, ctx);
  }
  simmpi::Comm& comm = ctx.comm_world();
  auto sync = clocksync::make_sync(scenario->sync_label);
  clocksync::SyncResult res = co_await sync->sync_clocks(comm, ctx.base_clock());
  RankOutcome& mine = outcomes[ctx.rank()];
  mine.health = static_cast<int>(res.report.health);
  mine.points_used = res.report.points_used;
  mine.sync_end = ctx.sim().now();
  mine.probes.reserve(kProbeTimes.size());
  for (const double t : kProbeTimes) mine.probes.push_back(res.clock->at_exact(t));

  clocksync::SKaMPIOffset oalg(scenario->accuracy_exchanges);
  const std::vector<int> clients = clocksync::sample_clients(
      comm.size(), /*p_ref=*/0, scenario->sample_fraction, seed ^ kClientSeedMix);
  const clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
      comm, *res.clock, oalg, scenario->accuracy_wait, clients, /*p_ref=*/0);
  mine.max_abs_t0 = acc.max_abs_t0;
  mine.max_abs_t1 = acc.max_abs_t1;
  mine.ran = true;  // last: a crash anywhere above leaves ran == false
}

}  // namespace

std::string describe_outcome(const RankOutcome& o) {
  std::ostringstream os;
  os << "ran=" << (o.ran ? 1 : 0) << " health=" << o.health << " points_used=" << o.points_used
     << " sync_end=" << hexf(o.sync_end) << " probes=";
  for (std::size_t i = 0; i < o.probes.size(); ++i) {
    if (i != 0) os << ',';
    os << hexf(o.probes[i]);
  }
  os << " acc_t0=" << hexf(o.max_abs_t0) << " acc_t1=" << hexf(o.max_abs_t1);
  return os.str();
}

RankOutcome parse_outcome(const std::string& line) {
  RankOutcome o;
  std::istringstream is(line);
  std::string tok;
  bool saw_ran = false;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("parse_outcome: malformed token \"" + tok + "\"");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "ran") {
      o.ran = value == "1";
      saw_ran = true;
    } else if (key == "health") {
      o.health = std::stoi(value);
    } else if (key == "points_used") {
      o.points_used = std::stoi(value);
    } else if (key == "sync_end") {
      o.sync_end = parse_hexf(value, "sync_end");
    } else if (key == "probes") {
      std::istringstream ps(value);
      std::string p;
      while (std::getline(ps, p, ',')) {
        if (!p.empty()) o.probes.push_back(parse_hexf(p, "probes"));
      }
    } else if (key == "acc_t0") {
      o.max_abs_t0 = parse_hexf(value, "acc_t0");
    } else if (key == "acc_t1") {
      o.max_abs_t1 = parse_hexf(value, "acc_t1");
    } else {
      throw std::invalid_argument("parse_outcome: unknown key \"" + key + "\"");
    }
  }
  if (!saw_ran) throw std::invalid_argument("parse_outcome: missing ran= field");
  return o;
}

std::vector<RankOutcome> run_scenario(const Scenario& scenario, std::uint64_t seed, int shards) {
  if (Recorder* recorder = active_recorder()) recorder->set_pending_label(scenario.name);
  simmpi::World world(scenario.machine, seed, scenario.faults, shards);
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(world.size()));
  world.run_all([&scenario, seed, &outcomes](simmpi::RankCtx& ctx) {
    return scenario_rank(&scenario, seed, outcomes.data(), ctx);
  });
  return outcomes;
}

RankOutcome replay_scenario_rank(const Scenario& scenario, const RecordedWorld& recorded,
                                 int rank) {
  if (recorded.info.machine != scenario.machine.describe()) {
    throw std::invalid_argument("replay_scenario_rank: recording was made on \"" +
                                recorded.info.machine + "\", scenario \"" + scenario.name +
                                "\" describes \"" + scenario.machine.describe() + "\"");
  }
  const std::string plan = scenario.faults.empty() ? "" : scenario.faults.describe();
  if (recorded.info.fault_plan != plan || recorded.info.fault_seed != scenario.faults.seed()) {
    throw std::invalid_argument(
        "replay_scenario_rank: recorded fault plan \"" + recorded.info.fault_plan +
        "\" does not match scenario \"" + scenario.name + "\" (\"" + plan + "\")");
  }
  simmpi::World world(scenario.machine, recorded.info.seed, scenario.faults, /*shards=*/1);
  ReplayFeed feed(recorded, rank);
  world.attach_replay(&feed);
  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(world.size()));
  world.run_all([&scenario, &recorded, &outcomes](simmpi::RankCtx& ctx) {
    return scenario_rank(&scenario, recorded.info.seed, outcomes.data(), ctx);
  });
  if (feed.remaining() != 0) {
    throw ReplayDivergence(rank, feed.consumed(),
                           "replayed program finished with " + std::to_string(feed.remaining()) +
                               " recorded events unconsumed");
  }
  return outcomes[static_cast<std::size_t>(rank)];
}

}  // namespace hcs::replay
