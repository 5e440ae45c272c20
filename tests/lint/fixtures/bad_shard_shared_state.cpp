// Bad fixture for shard-shared-state: rank code reaching across shard
// boundaries instead of going through the mailbox API and per-rank accessors.
namespace fixture {

struct Simulation {
  double now() const;
};

struct World {
  Simulation& sim();  // shard 0's event loop
};

struct Ctx {
  World& world();
  Simulation& sim();  // the rank's own shard
};

// Reads shard 0's clock from rank code — wrong time for ranks on any other
// shard, and a data race with shard 0's worker thread.
double observe(Ctx& ctx) {
  return ctx.world().sim().now();  // hcs-lint-expect: shard-shared-state
}

struct Comm {
  World* world_;
  double now() const {
    return world_->sim().now();  // hcs-lint-expect: shard-shared-state
  }
};

}  // namespace fixture
