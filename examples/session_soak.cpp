// Session-service soak driver: ramps one SessionManager through the load
// regimes the service contract promises to survive, and fails loudly when
// any promise breaks. This is the binary behind the CI `session-soak` job.
//
//   underload    everything admitted, everything completes bitwise-correct;
//   saturation   tenants weighted 2:1 flood a full service — admitted-work
//                shares must land within 10% of the weights;
//   overload     low-priority work is shed with explicit reasons, a
//                flexible request is admitted degraded, and every session
//                that did run is still bitwise-correct;
//   fault        a device quarantine mid-run degrades exactly the victim
//                session — co-residents keep their plans (replans == 0,
//                so their modeled step times never change), and everyone
//                still lands on the reference bits.
//
// Run:  ./session_soak [phase=all|underload|saturation|overload|fault]
//                      [seed=1] [workers=3] [level=2] [trace=...]
//
// Deterministic by construction: every admission price, deadline, and
// step time is modeled, and request parameters derive from seed= via
// splitmix64 — the same seed replays the same soak bit for bit.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "util/config.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

using namespace mpas;
using service::CostModel;
using service::ServiceOptions;
using service::SessionManager;
using service::SessionRequest;
using service::SessionResult;
using service::SessionState;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) g_failures += 1;
}

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct SoakConfig {
  std::uint64_t seed = 1;
  int workers = 3;
  int level = 2;
};

SessionRequest base_request(const SoakConfig& soak, std::uint64_t& stream,
                            const std::string& tenant) {
  // Vary the experiment deterministically from the seed stream; every
  // (level, case, steps) combination has a memoized reference hash.
  static constexpr int kCases[] = {2, 5, 6};
  SessionRequest req;
  req.tenant = tenant;
  req.mesh_level = soak.level;
  req.test_case = kCases[splitmix64(stream) % 3];
  req.steps = 4 + static_cast<int>(splitmix64(stream) % 3);
  req.output_every = 2;
  return req;
}

bool bitwise_ok(const SessionResult& r) {
  return r.state_hash == service::reference_hash(
                             r.mesh_level_used, r.test_case_used, r.steps_done);
}

// ------------------------------------------------------------- the phases

void phase_underload(const SoakConfig& soak) {
  std::printf("phase underload (seed=%llu)\n",
              static_cast<unsigned long long>(soak.seed));
  std::uint64_t stream = soak.seed;
  ServiceOptions opts;
  opts.workers = soak.workers;
  const CostModel costs;
  opts.admission.capacity_modeled_s =
      100 * costs.step_seconds(soak.level) * 8;
  SessionManager svc(opts);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(svc.submit(
        base_request(soak, stream, i % 2 == 0 ? "alpha" : "beta")));
  check(svc.drain(), "drain completed");

  for (const auto id : ids) {
    const SessionResult r = svc.result(id);
    check(r.state == SessionState::Completed,
          "session " + std::to_string(id) + " completed (" + r.reason + ")");
    check(bitwise_ok(r),
          "session " + std::to_string(id) + " bitwise-correct");
  }
  const auto stats = svc.stats();
  check(stats.rejected == 0 && stats.shed == 0,
        "nothing rejected or shed under light load");
}

void phase_saturation(const SoakConfig& soak) {
  std::printf("phase saturation (seed=%llu)\n",
              static_cast<unsigned long long>(soak.seed));
  std::uint64_t stream = soak.seed;
  ServiceOptions opts;
  opts.workers = soak.workers;
  const CostModel costs;
  SessionRequest unit_req;
  unit_req.mesh_level = soak.level;
  unit_req.steps = 5;
  unit_req.output_every = 2;
  const Real unit = costs.price(unit_req);
  opts.admission.capacity_modeled_s = 6.4 * unit;
  opts.admission.max_queued_per_tenant = 64;
  SessionManager svc(opts);
  svc.set_tenant_weight("gold", 2.0);
  svc.set_tenant_weight("bronze", 1.0);

  // Stage the flood while dispatch is paused so admission alone divides
  // the capacity, then release it.
  svc.set_paused(true);
  for (int i = 0; i < 12; ++i) {
    for (const char* tenant : {"gold", "bronze"}) {
      SessionRequest req = base_request(soak, stream, tenant);
      req.steps = 5;  // equal-cost units keep the share arithmetic exact
      req.allow_degraded = false;
      svc.submit(req);
    }
  }
  const auto at_saturation = svc.stats();
  svc.set_paused(false);
  check(svc.drain(), "drain completed");

  const Real gold = at_saturation.admitted_seconds_by_tenant.at("gold");
  const Real bronze = at_saturation.admitted_seconds_by_tenant.at("bronze");
  const Real share = gold / (gold + bronze);
  const Real target = 2.0 / 3.0;
  std::printf("  gold share %.3f (target %.3f +- 10%%)\n",
              static_cast<double>(share), static_cast<double>(target));
  check(share > 0.9 * target && share < 1.1 * target,
        "admitted-work share within 10% of tenant weights");
  check(at_saturation.rejected > 0, "the flood genuinely saturated");
  for (const SessionResult& r : svc.results())
    if (r.state == SessionState::Completed)
      check(bitwise_ok(r), "completed session " + std::to_string(r.id) +
                               " bitwise-correct");
}

void phase_overload(const SoakConfig& soak) {
  std::printf("phase overload (seed=%llu)\n",
              static_cast<unsigned long long>(soak.seed));
  std::uint64_t stream = soak.seed;
  ServiceOptions opts;
  opts.workers = soak.workers;
  const CostModel costs;
  SessionRequest unit_req;
  unit_req.mesh_level = soak.level;
  unit_req.steps = 5;
  unit_req.output_every = 2;
  const Real unit = costs.price(unit_req);
  // Room for three unit sessions plus change: the urgent submissions must
  // shed, and the change is what the degraded rung squeezes into.
  opts.admission.capacity_modeled_s = 3.9 * unit;
  SessionManager svc(opts);
  svc.set_paused(true);

  // Fill the service with background-priority work...
  std::vector<std::uint64_t> low_ids;
  for (int i = 0; i < 3; ++i) {
    SessionRequest req = base_request(soak, stream, "background");
    req.steps = 5;
    req.priority = 1;
    req.allow_degraded = false;
    low_ids.push_back(svc.submit(req));
  }
  // ...then slam it with urgent work that must shed the lowest priority.
  std::vector<std::uint64_t> urgent_ids;
  for (int i = 0; i < 2; ++i) {
    SessionRequest req = base_request(soak, stream, "urgent");
    req.steps = 5;
    req.priority = 9;
    req.allow_degraded = false;
    urgent_ids.push_back(svc.submit(req));
  }
  // And a flexible request that should be admitted at reduced fidelity.
  SessionRequest flexible = base_request(soak, stream, "flexible");
  flexible.mesh_level = soak.level + 2;
  flexible.steps = 3;  // short enough to fit the leftover once degraded
  flexible.priority = 1;
  const auto flex_id = svc.submit(flexible);

  const auto staged = svc.stats();
  check(staged.shed >= 1, "overload shed lower-priority sessions");
  int shed_seen = 0;
  for (const std::uint64_t id : low_ids) {
    const SessionResult r = svc.result(id);
    if (r.state != SessionState::Shed) continue;
    shed_seen += 1;
    check(!r.reason.empty() && r.reason.find("shed") != std::string::npos,
          "shed session " + std::to_string(id) + " carries a reason: " +
              r.reason);
  }
  check(shed_seen >= 1, "a background session was the shedding victim");
  for (const std::uint64_t id : urgent_ids)
    check(svc.result(id).state == SessionState::Queued,
          "urgent session " + std::to_string(id) + " admitted");
  const SessionResult flex = svc.result(flex_id);
  check(flex.degraded &&
            flex.mesh_level_used < flexible.mesh_level &&
            flex.reason.find("degraded under overload") != std::string::npos,
        "flexible session admitted degraded: " + flex.reason);

  svc.set_paused(false);
  check(svc.drain(), "drain completed");
  for (const SessionResult& r : svc.results()) {
    if (r.state != SessionState::Completed) continue;
    check(bitwise_ok(r), "completed session " + std::to_string(r.id) +
                             " bitwise-correct");
  }
}

void phase_fault(const SoakConfig& soak) {
  std::printf("phase fault-under-load (seed=%llu)\n",
              static_cast<unsigned long long>(soak.seed));
  std::uint64_t stream = soak.seed;
  ServiceOptions opts;
  opts.workers = 3;  // all three sessions genuinely co-resident
  const CostModel costs;
  opts.admission.capacity_modeled_s =
      100 * costs.step_seconds(soak.level) * 12;
  SessionManager svc(opts);

  const int steps = 10;
  SessionRequest victim = base_request(soak, stream, "victim");
  victim.steps = steps;
  victim.chaos.quarantine_accel_at_step =
      3 + static_cast<std::int64_t>(splitmix64(stream) % 3);
  SessionRequest co1 = base_request(soak, stream, "co1");
  co1.steps = steps;
  SessionRequest co2 = base_request(soak, stream, "co2");
  co2.steps = steps;

  const auto vid = svc.submit(victim);
  const auto c1 = svc.submit(co1);
  const auto c2 = svc.submit(co2);
  check(svc.drain(), "drain completed");

  const SessionResult v = svc.result(vid);
  check(v.state == SessionState::Completed,
        "victim completed (" + v.reason + ")");
  check(v.replans >= 1, "victim quarantined its device and replanned");
  check(bitwise_ok(v), "victim still bitwise-correct after healing");

  for (const auto id : {c1, c2}) {
    const SessionResult r = svc.result(id);
    check(r.state == SessionState::Completed,
          "co-resident " + std::to_string(id) + " completed");
    check(r.replans == 0,
          "co-resident " + std::to_string(id) + " kept its plan");
    check(bitwise_ok(r),
          "co-resident " + std::to_string(id) + " bitwise-correct");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  SoakConfig soak;
  soak.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  soak.workers = static_cast<int>(cfg.get_int("workers", 3));
  soak.level = static_cast<int>(cfg.get_int("level", 2));
  const std::string phase = cfg.get_string("phase", "all");

  const std::string trace_path =
      env::text("MPAS_TRACE").value_or(cfg.get_string("trace", ""));
  if (!trace_path.empty()) obs::start_trace_file(trace_path);

  if (phase == "all" || phase == "underload") phase_underload(soak);
  if (phase == "all" || phase == "saturation") phase_saturation(soak);
  if (phase == "all" || phase == "overload") phase_overload(soak);
  if (phase == "all" || phase == "fault") phase_fault(soak);

  std::printf("\nsession soak: %s (seed=%llu)\n",
              g_failures == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(soak.seed));
  if (!trace_path.empty())
    std::printf("trace written to %s\n", trace_path.c_str());
  return g_failures == 0 ? 0 : 1;
}
