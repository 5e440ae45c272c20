// Good fixture for shard-shared-state: rank code stays inside its own shard —
// time comes from the rank's accessors and cross-shard effects ride ordinary
// sends (the engine's mailbox API).
namespace fixture {

struct Simulation {
  double now() const;
};

struct Ctx {
  Simulation& sim();  // resolves the rank's owning shard
  int rank() const;
};

struct Payload {
  double value;
};

void post(Ctx& ctx, int dst, Payload p);

// Reads time through the rank's own shard.
double observe(Ctx& ctx) { return ctx.sim().now(); }

// Cross-shard communication through the transport: the message is queued in
// the destination shard's mailbox and delivered at the next window boundary.
void publish(Ctx& ctx, int dst, double v) { post(ctx, dst, Payload{v}); }

}  // namespace fixture
