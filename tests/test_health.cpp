// The self-healing subsystem's contract, bottom-up: the MPAS_FAULT grammar
// round-trips, the HealthMonitor's hysteresis and probation behave exactly
// as specified, machine::degrade scales the model consistently, the
// ReplanEngine's degraded plans pass the analysis verifier and stay within
// the 1.25x acceptance bound of the CPU-only modeled optimum (checked
// through the bench-harness attribution path), and — the headline — the
// closed loop heals device death, gray failures, transfer-corruption
// bursts, and rank stalls while landing bitwise on the fault-free solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness/attribution.hpp"
#include "comm/distributed.hpp"
#include "core/schedule.hpp"
#include "machine/machine_model.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_env.hpp"
#include "resilience/health/chaos.hpp"
#include "resilience/health/hybrid.hpp"
#include "resilience/health/monitor.hpp"
#include "resilience/health/replan.hpp"
#include "sw/model.hpp"
#include "sw/testcases.hpp"
#include "util/error.hpp"

namespace mpas::resilience::health {
namespace {

// ---------------------------------------------------------------- MPAS_FAULT

TEST(FaultEnv, ParsesEverySpecKind) {
  const auto campaign = parse_fault_campaign(
      "seed=42; drop@5 from=0 to=1 tag=7; corrupt@17 word=2 bit=12 repeat=3; "
      "delay@29; stall rank=2 step=1 ms=5; sdc rank=1 step=3; "
      "transfer-fail@4 buffer=2; transfer-corrupt p=0.25");
  EXPECT_EQ(campaign.seed, 42u);
  ASSERT_EQ(campaign.faults.size(), 7u);
  EXPECT_EQ(campaign.faults[0].kind, FaultKind::MsgDrop);
  EXPECT_EQ(campaign.faults[0].at_event, 5u);
  EXPECT_EQ(campaign.faults[0].from, 0);
  EXPECT_EQ(campaign.faults[0].to, 1);
  EXPECT_EQ(campaign.faults[0].tag, 7);
  EXPECT_EQ(campaign.faults[1].kind, FaultKind::MsgCorrupt);
  EXPECT_EQ(campaign.faults[1].word, 2u);
  EXPECT_EQ(campaign.faults[1].bit, 12u);
  EXPECT_EQ(campaign.faults[1].repeat, 3);
  EXPECT_EQ(campaign.faults[3].kind, FaultKind::RankStall);
  EXPECT_EQ(campaign.faults[3].rank, 2);
  EXPECT_NEAR(campaign.faults[3].stall_seconds, 5e-3, 1e-15);
  EXPECT_EQ(campaign.faults[5].kind, FaultKind::TransferFail);
  EXPECT_EQ(campaign.faults[5].buffer, 2);
  EXPECT_EQ(campaign.faults[6].kind, FaultKind::TransferCorrupt);
  EXPECT_NEAR(campaign.faults[6].probability, 0.25, 1e-15);
}

TEST(FaultEnv, CanonicalRenderingRoundTrips) {
  const auto campaign = parse_fault_campaign(
      "seed=7; drop@5 from=0 to=1; corrupt@17 word=2; delay@29; "
      "stall rank=2 step=1 ms=5; transfer-corrupt p=0.01");
  const std::string text = to_string(campaign);
  const auto again = parse_fault_campaign(text);
  EXPECT_EQ(again.seed, campaign.seed);
  ASSERT_EQ(again.faults.size(), campaign.faults.size());
  for (std::size_t i = 0; i < campaign.faults.size(); ++i) {
    EXPECT_EQ(again.faults[i].kind, campaign.faults[i].kind) << i;
    EXPECT_EQ(again.faults[i].at_event, campaign.faults[i].at_event) << i;
    EXPECT_EQ(again.faults[i].repeat, campaign.faults[i].repeat) << i;
    EXPECT_EQ(again.faults[i].from, campaign.faults[i].from) << i;
    EXPECT_EQ(again.faults[i].stall_seconds, campaign.faults[i].stall_seconds)
        << i;
    EXPECT_EQ(again.faults[i].probability, campaign.faults[i].probability)
        << i;
  }
  // Canonical text is a fixed point.
  EXPECT_EQ(to_string(again), text);
}

TEST(FaultEnv, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_campaign("explode@3"), Error);
  EXPECT_THROW(parse_fault_campaign("drop from=zero"), Error);
  EXPECT_THROW(parse_fault_campaign("drop color=red"), Error);
  EXPECT_THROW(parse_fault_campaign("seed="), Error);
}

TEST(FaultEnv, ArmedCampaignFiresDeterministically) {
  const auto campaign = parse_fault_campaign("seed=9; drop@1 from=0 to=1");
  FaultInjector injector(campaign.seed);
  arm_campaign(injector, campaign);
  EXPECT_TRUE(injector.on_message(0, 1, 3).empty());   // event 0
  EXPECT_FALSE(injector.on_message(0, 1, 3).empty());  // event 1 fires
  EXPECT_TRUE(injector.on_message(0, 1, 3).empty());   // repeat=1 exhausted
}

// ------------------------------------------------------------ HealthMonitor

TEST(HealthMonitor, SlowStepHysteresis) {
  HealthMonitor m;
  m.track("accel");
  // Learn a 1 ms baseline over two clean steps.
  for (std::int64_t s = 0; s < 2; ++s) {
    m.observe_step_time("accel", s, 1e-3);
    m.end_step(s);
  }
  EXPECT_EQ(m.state("accel"), HealthState::Healthy);
  // One slow step is never enough (hysteresis).
  m.observe_step_time("accel", 2, 5e-3);
  m.end_step(2);
  EXPECT_EQ(m.state("accel"), HealthState::Healthy);
  // Second consecutive slow step: Suspect.
  m.observe_step_time("accel", 3, 5e-3);
  m.end_step(3);
  EXPECT_EQ(m.state("accel"), HealthState::Suspect);
  EXPECT_NEAR(m.slowdown("accel"), 5.0, 1e-9);
  // Two more: Quarantined, and the generation moved on every transition.
  const std::uint64_t gen = m.generation();
  m.observe_step_time("accel", 4, 5e-3);
  m.end_step(4);
  m.observe_step_time("accel", 5, 5e-3);
  m.end_step(5);
  EXPECT_EQ(m.state("accel"), HealthState::Quarantined);
  EXPECT_FALSE(m.usable("accel"));
  EXPECT_GT(m.generation(), gen);
}

TEST(HealthMonitor, SuspectClearsAfterCleanStreak) {
  HealthMonitor m;
  m.track("accel");
  for (std::int64_t s = 0; s < 2; ++s) {
    m.observe_step_time("accel", s, 1e-3);
    m.end_step(s);
  }
  for (std::int64_t s = 2; s < 4; ++s) {
    m.observe_step_time("accel", s, 9e-3);
    m.end_step(s);
  }
  ASSERT_EQ(m.state("accel"), HealthState::Suspect);
  // One clean step is not enough; two are.
  m.observe_step_time("accel", 4, 1e-3);
  m.end_step(4);
  EXPECT_EQ(m.state("accel"), HealthState::Suspect);
  m.observe_step_time("accel", 5, 1e-3);
  m.end_step(5);
  EXPECT_EQ(m.state("accel"), HealthState::Healthy);
}

TEST(HealthMonitor, MissedHeartbeatAndRetryBudgetAreBadSignals) {
  HealthMonitor m;
  m.track("rank1");
  // Silence for suspect_after steps: Suspect via missed heartbeats.
  m.end_step(0);
  m.end_step(1);
  EXPECT_EQ(m.state("rank1"), HealthState::Suspect);
  ASSERT_FALSE(m.transitions().empty());
  EXPECT_EQ(m.transitions().back().reason, "missed heartbeat");

  HealthMonitor r;
  r.track("accel");
  // Retries over budget count as bad even with a heartbeat present.
  for (std::int64_t s = 0; s < 2; ++s) {
    r.observe_heartbeat("accel", s);
    r.observe_transfer_retries("accel", 3);  // budget is 2
    r.end_step(s);
  }
  EXPECT_EQ(r.state("accel"), HealthState::Suspect);
  EXPECT_EQ(r.transitions().back().reason, "transfer retries over budget");
}

TEST(HealthMonitor, HardFailureQuarantinesImmediately) {
  HealthMonitor m;
  m.track("accel");
  m.observe_failure("accel", 0, "transfer escalation");
  EXPECT_EQ(m.state("accel"), HealthState::Quarantined);
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].from, HealthState::Healthy);
}

TEST(HealthMonitor, ProbationBacksOffExponentiallyAndRecovers) {
  HealthMonitor m;
  m.track("accel");
  m.observe_failure("accel", 10, "dead link");
  // First probe is due probe_backoff_start (= 2) steps after quarantine.
  EXPECT_FALSE(m.probe_due("accel", 11));
  EXPECT_TRUE(m.probe_due("accel", 12));
  // Failed probes double the backoff: 2 -> 4 -> 8 -> ... capped at 32.
  m.observe_probe("accel", 12, false);
  EXPECT_FALSE(m.probe_due("accel", 15));
  EXPECT_TRUE(m.probe_due("accel", 16));
  m.observe_probe("accel", 16, false);
  EXPECT_FALSE(m.probe_due("accel", 23));
  EXPECT_TRUE(m.probe_due("accel", 24));
  m.observe_probe("accel", 24, false);  // backoff 16: next at 40
  EXPECT_FALSE(m.probe_due("accel", 39));
  m.observe_probe("accel", 40, false);  // backoff 32: next at 72
  EXPECT_FALSE(m.probe_due("accel", 71));
  m.observe_probe("accel", 72, false);  // capped at 32: next at 104
  EXPECT_FALSE(m.probe_due("accel", 103));
  EXPECT_TRUE(m.probe_due("accel", 104));

  // Successful back-to-back probes promote to Recovered...
  HealthMonitor r;
  r.track("accel");
  r.observe_failure("accel", 0, "dead link");
  r.observe_probe("accel", 2, true);
  EXPECT_EQ(r.state("accel"), HealthState::Quarantined);
  EXPECT_TRUE(r.probe_due("accel", 3));  // confirmation probe, no backoff
  r.observe_probe("accel", 3, true);
  EXPECT_EQ(r.state("accel"), HealthState::Recovered);
  EXPECT_TRUE(r.usable("accel"));
  // ... and clean steps finish the journey back to Healthy.
  for (std::int64_t s = 4; s < 6; ++s) {
    r.observe_step_time("accel", s, 1e-3);
    r.end_step(s);
  }
  EXPECT_EQ(r.state("accel"), HealthState::Healthy);
}

TEST(HealthMonitor, RecoveredEntityGetsNoBenefitOfTheDoubt) {
  HealthMonitor m;
  m.track("accel");
  m.observe_failure("accel", 0, "dead link");
  m.observe_probe("accel", 2, true);
  m.observe_probe("accel", 3, true);
  ASSERT_EQ(m.state("accel"), HealthState::Recovered);
  // A single bad signal right after probation demotes straight to Suspect.
  m.end_step(4);  // missed heartbeat
  EXPECT_EQ(m.state("accel"), HealthState::Suspect);
}

TEST(HealthMonitor, ResetBaselineForgetsLearnedStepTime) {
  HealthMonitor m;
  m.track("host");
  for (std::int64_t s = 0; s < 2; ++s) {
    m.observe_step_time("host", s, 1e-3);
    m.end_step(s);
  }
  // A schedule swap makes the host 10x busier; with the baseline reset the
  // heavier plan is the new normal, not a gray failure.
  m.reset_baseline("host");
  for (std::int64_t s = 2; s < 6; ++s) {
    m.observe_step_time("host", s, 1e-2);
    m.end_step(s);
  }
  EXPECT_EQ(m.state("host"), HealthState::Healthy);
  EXPECT_NEAR(m.slowdown("host"), 1.0, 1e-9);
}

// The baseline is the first clean step, held: a moving average would
// follow a 3%-a-step ramp up and never call a step slow. Held, step 17 is
// the first over slow_factor (1.51x) and step 18 the second: Suspect.
TEST(HealthMonitor, SlowRampIsSuspectedAgainstTheFirstCleanStep) {
  HealthMonitor m;
  m.track("accel");
  for (std::int64_t s = 0; s < 30; ++s) {
    m.observe_step_time("accel", s, 1e-3 * (1 + 0.03 * static_cast<Real>(s)));
    m.end_step(s);
  }
  const auto transitions = m.transitions();
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.front().to, HealthState::Suspect);
  EXPECT_EQ(transitions.front().step, 18);
  EXPECT_EQ(transitions.front().reason, "slow step");
}

// The session service drives one monitor from concurrent workers. Hammer
// 32 entities from multiple threads (each thread owns its entities — the
// per-entity determinism contract) and assert no transition was lost and
// the generation counter moved once per transition.
TEST(HealthMonitor, ConcurrentFailuresLoseNoTransitions) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;  // 32 entities total
  HealthMonitor m;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      m.track("dev" + std::to_string(t) + "_" + std::to_string(i));

  const std::uint64_t gen0 = m.generation();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string name =
            "dev" + std::to_string(t) + "_" + std::to_string(i);
        // Hard fault -> Quarantined, then probation back to Recovered:
        // two transitions per entity, interleaved across threads.
        m.observe_failure(name, /*step=*/1, "injected");
        std::int64_t step = 1;
        while (m.state(name) != HealthState::Recovered) {
          step += 1;
          if (m.probe_due(name, step)) m.observe_probe(name, step, true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto transitions = m.transitions();
  ASSERT_EQ(transitions.size(), 2u * kThreads * kPerThread);
  EXPECT_EQ(m.generation() - gen0, 2u * kThreads * kPerThread);
  int quarantines = 0;
  int recoveries = 0;
  for (const auto& tr : transitions) {
    if (tr.to == HealthState::Quarantined) quarantines += 1;
    if (tr.to == HealthState::Recovered) recoveries += 1;
  }
  EXPECT_EQ(quarantines, kThreads * kPerThread);
  EXPECT_EQ(recoveries, kThreads * kPerThread);
  for (const auto& name : m.entities())
    EXPECT_EQ(m.state(name), HealthState::Recovered);
}

// Regression: listeners fire after the monitor releases its mutex, so a
// listener may call back into the monitor — query it, or even cause further
// transitions — without self-deadlocking. (Listeners used to run under the
// lock; a re-entrant listener would hang forever.)
TEST(HealthMonitor, ListenerMayReenterTheMonitor) {
  HealthMonitor m;
  m.track("accel");
  m.track("spare");

  std::vector<Transition> seen;
  m.add_transition_listener([&m, &seen](const Transition& t) {
    seen.push_back(t);
    // Query re-entrancy: reading state from inside the listener must not
    // deadlock.
    EXPECT_NE(m.state(t.entity), HealthState::Healthy);
    // Mutating re-entrancy: the accel's quarantine fails the spare over
    // too. The nested transition is queued and delivered to this same
    // listener after the current batch, not dropped and not re-entered
    // under the lock.
    if (t.entity == "accel" && t.to == HealthState::Quarantined &&
        m.state("spare") == HealthState::Healthy)
      m.observe_failure("spare", t.step, "cascaded from accel");
  });

  m.observe_failure("accel", /*step=*/7, "injected");

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].entity, "accel");
  EXPECT_EQ(seen[0].to, HealthState::Quarantined);
  EXPECT_EQ(seen[1].entity, "spare");
  EXPECT_EQ(seen[1].to, HealthState::Quarantined);
  EXPECT_EQ(seen[1].reason, "cascaded from accel");
  EXPECT_EQ(m.state("accel"), HealthState::Quarantined);
  EXPECT_EQ(m.state("spare"), HealthState::Quarantined);
}

// Two monitors with distinct metric scopes must publish distinguishable
// series; an unscoped monitor keeps the historical global names.
TEST(HealthMonitor, MetricScopeSeparatesConcurrentMonitors) {
  auto& registry = obs::MetricsRegistry::global();
  HealthMonitor a;
  a.set_metric_scope("service.session1.");
  HealthMonitor b;
  b.set_metric_scope("service.session2.");
  a.track("accel");
  b.track("accel");

  const auto quarantines = [&registry](const std::string& scope) {
    return registry.counter(scope + "resilience.health.quarantines").value();
  };
  const auto q1 = quarantines("service.session1.");
  const auto q2 = quarantines("service.session2.");
  const auto q_global = quarantines("");

  a.observe_failure("accel", 3, "session 1 fault");
  EXPECT_EQ(quarantines("service.session1."), q1 + 1);
  EXPECT_EQ(quarantines("service.session2."), q2);
  EXPECT_EQ(quarantines(""), q_global);  // global series untouched
  b.observe_failure("accel", 5, "session 2 fault");
  EXPECT_EQ(quarantines("service.session2."), q2 + 1);

  EXPECT_EQ(registry.gauge("service.session1.resilience.health.state.accel")
                .value(),
            static_cast<double>(static_cast<int>(HealthState::Quarantined)));
  EXPECT_EQ(registry.gauge("service.session2.resilience.health.state.accel")
                .value(),
            static_cast<double>(static_cast<int>(HealthState::Quarantined)));
}

// ---------------------------------------------------------- machine degrade

TEST(MachineDegrade, ScalesKernelAndRooflineTimesConsistently) {
  const machine::Platform platform = machine::paper_platform();
  machine::KernelCost cost;
  cost.flops = 40;
  cost.bytes_streamed = 96;
  cost.bytes_gathered = 64;
  cost.bytes_written = 24;
  const std::int64_t n = 40962;
  const Real slowdown = 2.5;
  const machine::DeviceSpec slow =
      machine::degrade(platform.accelerator, slowdown);
  for (const auto opt : {machine::OptLevel::Refactored,
                         machine::OptLevel::Full}) {
    const Real t0 = machine::kernel_time(platform.accelerator, cost, n, opt);
    const Real t1 = machine::kernel_time(slow, cost, n, opt);
    EXPECT_NEAR(t1 / t0, slowdown, 1e-9) << to_string(opt);
    const Real r0 = machine::roofline_time(platform.accelerator, cost, n, opt);
    const Real r1 = machine::roofline_time(slow, cost, n, opt);
    EXPECT_NEAR(r1 / r0, slowdown, 1e-9) << to_string(opt);
  }
  // slowdown <= 1 is the identity.
  EXPECT_EQ(machine::degrade(platform.host, 1.0).freq_ghz,
            platform.host.freq_ghz);
}

TEST(MachineDegrade, DegradedPlatformOnlyTouchesRequestedDevice) {
  const machine::Platform base = machine::paper_platform();
  const machine::Platform degraded = machine::degraded_platform(base, 3.0);
  EXPECT_EQ(degraded.host.freq_ghz, base.host.freq_ghz);
  EXPECT_NEAR(degraded.accelerator.freq_ghz, base.accelerator.freq_ghz / 3.0,
              1e-12);
  EXPECT_NEAR(degraded.accelerator.region_overhead_us,
              base.accelerator.region_overhead_us * 3.0, 1e-9);
}

// ------------------------------------------------------------- ReplanEngine

struct ReplanFixture {
  // Level 4: the smallest mesh whose nameplate plan offloads work (the
  // gray-failure comparison is vacuous when everything is host-only).
  std::shared_ptr<const mesh::VoronoiMesh> mesh = mesh::get_global_mesh(4);
  sw::SwParams params;
  sw::SwModel model{*mesh, params};
  core::MeshSizes sizes{mesh->num_cells, mesh->num_edges, mesh->num_vertices};
  core::SimOptions opts{machine::paper_platform()};

  ReplanFixture() { opts.record_trace = true; }
};

TEST(ReplanEngine, AccelDeathFallsBackToVerifiedHostOnlyPlan) {
  ReplanFixture fx;
  const ReplanEngine engine(fx.sizes, fx.opts);
  DeviceAvailability dead;
  dead.accel_alive = false;

  const auto& graphs = fx.model.graphs();
  const core::DataflowGraph* all[3] = {&graphs.setup, &graphs.early,
                                       &graphs.final};
  for (const auto* graph : all) {
    const ReplanResult r = engine.replan(*graph, dead);
    // Acceptance: the swapped-in schedule passes the verifier with zero
    // errors and places nothing on the quarantined accelerator.
    EXPECT_TRUE(r.accepted) << graph->name();
    EXPECT_EQ(r.verification.errors(), 0) << graph->name();
    ASSERT_EQ(r.schedule.assignments.size(),
              static_cast<std::size_t>(graph->num_nodes()));
    for (const auto& a : r.schedule.assignments)
      EXPECT_EQ(a.side, core::DeviceSide::Host) << graph->name();

    // Acceptance: modeled per-step time within 1.25x of the CPU-only
    // schedule's modeled optimum once the MIC is gone.
    const core::SimResult cpu = engine.cpu_only_modeled(*graph, dead);
    EXPECT_LE(r.modeled.makespan, 1.25 * cpu.makespan) << graph->name();
    EXPECT_GT(r.modeled_optimum, 0.0);
    EXPECT_GE(r.modeled.makespan, r.modeled_optimum * (1 - 1e-9))
        << graph->name();
  }
}

TEST(ReplanEngine, AttributionShowsIdleAccelAfterDeath) {
  ReplanFixture fx;
  const ReplanEngine engine(fx.sizes, fx.opts);
  DeviceAvailability dead;
  dead.accel_alive = false;
  const ReplanResult r = engine.replan(fx.model.graphs().early, dead);
  ASSERT_TRUE(r.accepted);
  // The bench-harness attribution path over the degraded plan: all busy
  // time lands on the host lane, the accelerator's utilization is zero.
  const auto report = bench_harness::attribute_schedule(
      fx.model.graphs().early, r.schedule, r.modeled, fx.sizes,
      engine.degraded_options(dead), "degraded");
  bool saw_host = false;
  bool saw_accel = false;
  for (const auto& dev : report.devices) {
    if (dev.device == "host") {
      saw_host = true;
      EXPECT_GT(dev.busy_s, 0.0);
      EXPECT_GT(dev.roofline_utilization, 0.0);
    }
    if (dev.device == "accel") {
      saw_accel = true;
      EXPECT_EQ(dev.busy_s, 0.0);
      EXPECT_EQ(dev.flops, 0.0);
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_accel);
}

TEST(ReplanEngine, GrayFailureReplanBeatsStalePlanOnDegradedPlatform) {
  ReplanFixture fx;
  const ReplanEngine engine(fx.sizes, fx.opts);
  const auto& graph = fx.model.graphs().early;

  const ReplanResult nameplate = engine.replan(graph, DeviceAvailability{});
  ASSERT_TRUE(nameplate.accepted);

  DeviceAvailability gray;
  gray.accel_slowdown = 4.0;
  const ReplanResult adapted = engine.replan(graph, gray);
  ASSERT_TRUE(adapted.accepted);
  EXPECT_EQ(adapted.verification.errors(), 0);

  // Cost the stale nameplate split on the *degraded* platform: the replan
  // that knows about the slowdown must be at least as good.
  const core::SimResult stale = core::simulate_schedule(
      graph, nameplate.schedule, fx.sizes, engine.degraded_options(gray));
  EXPECT_LE(adapted.modeled.makespan, stale.makespan * (1 + 1e-12));
}

// ------------------------------------------------------- SelfHealingHybrid

struct HybridRun {
  // Level 4 is the smallest mesh whose pattern-level split uses the
  // accelerator; smaller meshes stay host-only and leave nothing to kill.
  std::shared_ptr<const mesh::VoronoiMesh> mesh = mesh::get_global_mesh(4);
  std::shared_ptr<const sw::TestCase> tc = sw::make_test_case(2);
  sw::SwParams params;

  HybridRun() { params.dt = sw::suggested_time_step(*tc, *mesh, 0.4); }

  void reference(int steps, std::vector<Real>& h, std::vector<Real>& u) const {
    sw::SwModel ref(*mesh, params);
    sw::apply_initial_conditions(*tc, *mesh, ref.fields());
    ref.initialize();
    ref.run(steps);
    const auto h_ref = ref.fields().get(sw::FieldId::H);
    const auto u_ref = ref.fields().get(sw::FieldId::U);
    h.assign(h_ref.begin(), h_ref.end());
    u.assign(u_ref.begin(), u_ref.end());
  }
};

TEST(SelfHealingHybrid, InitialPlanIsHybridAndVerified) {
  HybridRun run;
  SelfHealingHybrid sut(*run.mesh, run.params, {});
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  EXPECT_EQ(sut.replans(), 0);
  EXPECT_TRUE(sut.availability().accel_alive);
  for (const ReplanResult* plan :
       {&sut.setup_plan(), &sut.early_plan(), &sut.final_plan()}) {
    EXPECT_TRUE(plan->accepted);
    EXPECT_EQ(plan->verification.errors(), 0);
  }
  // The nameplate plan actually uses the accelerator.
  bool uses_accel = false;
  for (const auto& a : sut.early_plan().schedule.assignments)
    uses_accel = uses_accel || a.side != core::DeviceSide::Host;
  EXPECT_TRUE(uses_accel);
}

TEST(SelfHealingHybrid, DeviceDeathQuarantinesReplansAndStaysBitwise) {
  HybridRun run;
  const int steps = 10;
  std::vector<Real> h_ref, u_ref;
  run.reference(steps, h_ref, u_ref);

  // The link dies for good on the first transfer of step 2 (3 startup
  // events + 4 per step).
  FaultInjector injector(11);
  FaultSpec death;
  death.kind = FaultKind::TransferFail;
  death.at_event = 3 + 4 * 2;
  death.repeat = 1 << 20;
  injector.add(death);

  SelfHealingHybrid::Options opts;
  opts.injector = &injector;
  SelfHealingHybrid sut(*run.mesh, run.params, opts);
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  sut.run(steps);

  EXPECT_EQ(sut.monitor().state("accel"), HealthState::Quarantined);
  EXPECT_GE(sut.replans(), 1);
  EXPECT_FALSE(sut.availability().accel_alive);
  // The degraded plan is host-only and still verifier-clean.
  for (const ReplanResult* plan :
       {&sut.setup_plan(), &sut.early_plan(), &sut.final_plan()}) {
    EXPECT_TRUE(plan->accepted);
    EXPECT_EQ(plan->verification.errors(), 0);
    for (const auto& a : plan->schedule.assignments)
      EXPECT_EQ(a.side, core::DeviceSide::Host);
  }

  // Acceptance: per-step modeled time of the healed run within 1.25x of
  // the CPU-only schedules' modeled makespans.
  DeviceAvailability dead;
  dead.accel_alive = false;
  const auto& graphs = sut.model().graphs();
  const Real cpu_step =
      sut.engine().cpu_only_modeled(graphs.setup, dead).makespan +
      3 * sut.engine().cpu_only_modeled(graphs.early, dead).makespan +
      sut.engine().cpu_only_modeled(graphs.final, dead).makespan;
  EXPECT_LE(sut.modeled_step_seconds(), 1.25 * cpu_step);

  // Bitwise convergence to the fault-free solution.
  const auto h = sut.model().fields().get(sw::FieldId::H);
  const auto u = sut.model().fields().get(sw::FieldId::U);
  ASSERT_EQ(h.size(), h_ref.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], h_ref[i]) << i;
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_EQ(u[i], u_ref[i]) << i;
}

TEST(SelfHealingHybrid, TransientDeathRecoversThroughProbation) {
  HybridRun run;
  const int steps = 14;
  std::vector<Real> h_ref, u_ref;
  run.reference(steps, h_ref, u_ref);

  // A transient outage: the fault budget (8 fires) is consumed by the
  // failing step-2 transfer (4 attempts) and the first probation probe
  // (4 attempts); the next probe finds the link healthy again.
  FaultInjector injector(5);
  FaultSpec outage;
  outage.kind = FaultKind::TransferFail;
  outage.at_event = 3 + 4 * 2;
  outage.repeat = 8;
  injector.add(outage);

  SelfHealingHybrid::Options opts;
  opts.injector = &injector;
  SelfHealingHybrid sut(*run.mesh, run.params, opts);
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  sut.run(steps);

  bool quarantined = false;
  bool recovered = false;
  for (const auto& t : sut.monitor().transitions()) {
    quarantined = quarantined || t.to == HealthState::Quarantined;
    recovered = recovered || t.to == HealthState::Recovered;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(recovered);
  // The loop closed all the way: quarantine swap + recovery swap, the
  // accelerator is back in the plan, and the monitor settled on Healthy.
  EXPECT_GE(sut.replans(), 2);
  EXPECT_TRUE(sut.availability().accel_alive);
  EXPECT_EQ(sut.monitor().state("accel"), HealthState::Healthy);
  bool uses_accel = false;
  for (const auto& a : sut.early_plan().schedule.assignments)
    uses_accel = uses_accel || a.side != core::DeviceSide::Host;
  EXPECT_TRUE(uses_accel);

  const auto h = sut.model().fields().get(sw::FieldId::H);
  const auto u = sut.model().fields().get(sw::FieldId::U);
  ASSERT_EQ(h.size(), h_ref.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], h_ref[i]) << i;
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_EQ(u[i], u_ref[i]) << i;
}

/// The first transition into `to`, or nullptr.
const Transition* first_transition(const std::vector<Transition>& log,
                                   HealthState to) {
  const auto it = std::find_if(
      log.begin(), log.end(), [to](const Transition& t) { return t.to == to; });
  return it == log.end() ? nullptr : &*it;
}

// A gray failure: the modeled accelerator quietly runs 2.2x slow from step
// 10, with no hard fault. Its second slow step makes it Suspect, the next
// plan de-rates it, and it is never quarantined first.
TEST(SelfHealingHybrid, GraySlowdownIsSuspectedOnItsSecondSlowStep) {
  HybridRun run;
  SelfHealingHybrid sut(*run.mesh, run.params, {});
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  constexpr std::int64_t kOnset = 10;
  sut.set_accel_slowdown_hook(
      [&sut] { return sut.step_index() >= kOnset ? Real(2.2) : Real(1); });

  // Through step kOnset + 2, the boundary that swaps in the next plan.
  sut.run(kOnset + 3);
  const auto log = sut.monitor().transitions();
  const Transition* suspect = first_transition(log, HealthState::Suspect);
  ASSERT_NE(suspect, nullptr);
  EXPECT_EQ(suspect->entity, "accel");
  EXPECT_EQ(suspect->step, kOnset + 1);
  EXPECT_EQ(suspect->reason, "slow step");
  EXPECT_EQ(sut.replans(), 1);
  EXPECT_TRUE(sut.availability().accel_alive);
  EXPECT_GT(sut.availability().accel_slowdown, 1.5);

  sut.run(20 - (kOnset + 3));
  const Transition* quarantine =
      first_transition(sut.monitor().transitions(), HealthState::Quarantined);
  EXPECT_TRUE(quarantine == nullptr || suspect->step < quarantine->step);
}

// A slow ramp: from step 3 the accelerator's factor is 1 + 0.03 (s - 2).
// Against the baseline of the plan's first clean step, step 19 (1.51x) is
// the first slow step and step 20 the second: Suspect.
TEST(SelfHealingHybrid, SlowRampIsSuspectedOnceItPassesTheSlowFactor) {
  HybridRun run;
  SelfHealingHybrid sut(*run.mesh, run.params, {});
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  sut.set_accel_slowdown_hook([&sut] {
    const std::int64_t s = sut.step_index();
    return s >= 3 ? 1 + Real(0.03) * static_cast<Real>(s - 2) : Real(1);
  });
  sut.run(30);
  const auto log = sut.monitor().transitions();
  const Transition* suspect = first_transition(log, HealthState::Suspect);
  ASSERT_NE(suspect, nullptr);
  EXPECT_EQ(suspect->entity, "accel");
  EXPECT_EQ(suspect->step, 20);
  EXPECT_EQ(suspect->reason, "slow step");
}

// The dual: a clean 200-step soak raises no suspicion at all — no Suspect,
// no Quarantined (the false-positive budget is zero).
TEST(SelfHealingHybrid, CleanSoakRaisesNoDriftAlarms) {
  HybridRun run;
  SelfHealingHybrid sut(*run.mesh, run.params, {});
  sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
  sut.initialize();
  sut.run(200);
  for (const auto& t : sut.monitor().transitions()) {
    EXPECT_NE(t.to, HealthState::Suspect) << t.reason;
    EXPECT_NE(t.to, HealthState::Quarantined) << t.reason;
  }
}

// ---------------------------------------------------------- chaos campaigns

TEST(Chaos, DeviceDeathCampaignPasses) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions opts;
    opts.scenario = ChaosScenario::DeviceDeath;
    opts.seed = seed;
    const ChaosReport report = run_chaos(opts);
    EXPECT_TRUE(report.passed()) << report.summary;
    EXPECT_TRUE(report.quarantined) << report.summary;
    EXPECT_GE(report.replans, 1) << report.summary;
  }
}

TEST(Chaos, GrayFailureCampaignPasses) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions opts;
    opts.scenario = ChaosScenario::GrayFailure;
    opts.seed = seed;
    const ChaosReport report = run_chaos(opts);
    EXPECT_TRUE(report.passed()) << report.summary;
    EXPECT_TRUE(report.detected) << report.summary;
  }
}

TEST(Chaos, TransferCorruptionBurstCampaignPasses) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions opts;
    opts.scenario = ChaosScenario::TransferCorruptionBurst;
    opts.seed = seed;
    const ChaosReport report = run_chaos(opts);
    EXPECT_TRUE(report.passed()) << report.summary;
    // Retries stayed within the budget: suspicion, not quarantine.
    EXPECT_FALSE(report.quarantined) << report.summary;
  }
}

TEST(Chaos, RankStallCampaignShrinksAndPasses) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions opts;
    opts.scenario = ChaosScenario::RankStall;
    opts.seed = seed;
    const ChaosReport report = run_chaos(opts);
    EXPECT_TRUE(report.passed()) << report.summary;
    EXPECT_EQ(report.final_ranks, opts.ranks - 1) << report.summary;
  }
}

TEST(Chaos, ScenarioNamesRoundTrip) {
  for (const ChaosScenario s :
       {ChaosScenario::DeviceDeath, ChaosScenario::GrayFailure,
        ChaosScenario::TransferCorruptionBurst, ChaosScenario::RankStall})
    EXPECT_EQ(parse_scenario(to_string(s)), s);
  EXPECT_THROW(parse_scenario("meteor-strike"), Error);
}

// -------------------------------------------------------- distributed shrink

TEST(DistributedShrink, MidRunShrinkContinuesBitwise) {
  const auto mesh = mesh::get_global_mesh(2);
  const auto tc = sw::make_test_case(2);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  const int steps_before = 3;
  const int steps_after = 2;

  comm::DistributedSw ref(*mesh, 4, params);
  ref.apply_test_case(*tc);
  ref.initialize();
  ref.run(steps_before + steps_after);

  comm::DistributedSw sut(*mesh, 4, params);
  sut.apply_test_case(*tc);
  sut.initialize();
  sut.run(steps_before);
  sut.shrink_to(2);
  EXPECT_EQ(sut.num_ranks(), 2);
  sut.run(steps_after);

  EXPECT_EQ(sut.gather_global(sw::FieldId::H), ref.gather_global(sw::FieldId::H));
  EXPECT_EQ(sut.gather_global(sw::FieldId::U), ref.gather_global(sw::FieldId::U));
}

// --------------------------------------------------------- metrics & traces

TEST(Observability, CampaignPublishesHealthMetricsAndTraceInstants) {
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);

  ChaosOptions opts;
  opts.scenario = ChaosScenario::DeviceDeath;
  opts.seed = 1;
  const ChaosReport report = run_chaos(opts);
  recorder.set_enabled(false);
  ASSERT_TRUE(report.passed()) << report.summary;

  bool saw_quarantine = false;
  bool saw_probe = false;
  bool saw_replan = false;
  for (const auto& event : recorder.snapshot()) {
    saw_quarantine = saw_quarantine || event.name == "health:quarantine";
    saw_probe = saw_probe || event.name == "health:probe";
    saw_replan = saw_replan || event.name == "health:replan";
  }
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_replan);

  auto& registry = obs::MetricsRegistry::global();
  EXPECT_GE(registry.counter("resilience.health.transitions").value(), 1u);
  EXPECT_GE(registry.counter("resilience.health.quarantines").value(), 1u);
  EXPECT_GE(registry.counter("resilience.health.probes").value(), 1u);
  EXPECT_GE(registry.counter("resilience.health.replans").value(), 1u);
  EXPECT_EQ(static_cast<int>(
                registry.gauge("resilience.health.state.accel").value()),
            static_cast<int>(HealthState::Quarantined));
}

}  // namespace
}  // namespace mpas::resilience::health
