// The simulation service's contract, bottom-up: deterministic pricing,
// every rung of the admission ladder with its explicit reason, DWRR
// dispatch fairness, refcounted mesh sharing, and the SessionManager's
// end-to-end guarantees — bitwise-correct admitted runs, retry with
// modeled backoff, cooperative cancellation, modeled deadlines, and
// per-session fault isolation under a mid-run quarantine — that each
// service fact is one line, byte-identical in every sink that writes it,
// and that fold_slo judges SLOs from those lines.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/event_log.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "service/admission.hpp"
#include "service/fair_queue.hpp"
#include "service/journal.hpp"
#include "service/mesh_store.hpp"
#include "service/request.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace mpas::service {
namespace {

SessionRequest small_request(const std::string& tenant = "default") {
  SessionRequest req;
  req.tenant = tenant;
  req.mesh_level = 2;
  req.test_case = 2;
  req.steps = 4;
  req.output_every = 2;
  return req;
}

// ------------------------------------------------------------- cost model

TEST(CostModel, PricingIsDeterministicAndMonotonic) {
  const CostModel costs;
  const SessionRequest req = small_request();
  EXPECT_GT(costs.price(req), 0);
  EXPECT_EQ(costs.price(req), costs.price(req));

  SessionRequest finer = req;
  finer.mesh_level = 4;
  EXPECT_GT(costs.price(finer), costs.price(req));

  SessionRequest longer = req;
  longer.steps = 8;
  EXPECT_GT(costs.price(longer), costs.price(req));

  SessionRequest chattier = req;
  chattier.output_every = 1;
  EXPECT_GT(costs.price(chattier), costs.price(req));
}

// -------------------------------------------------------- admission ladder

class AdmissionLadder : public ::testing::Test {
 protected:
  AdmissionLadder() : costs_() {
    policy_.max_queued_per_tenant = 4;
    // Capacity sized in units of the level-2 request so each rung is easy
    // to force: room for ~2 such sessions.
    policy_.capacity_modeled_s = 2.5 * costs_.price(small_request());
  }
  CostModel costs_;
  AdmissionPolicy policy_;
};

TEST_F(AdmissionLadder, AdmitsWithinGuarantee) {
  const AdmissionController admission(policy_, &costs_);
  const auto verdict = admission.decide(small_request(), {});
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_FALSE(verdict.borrowed);
  EXPECT_TRUE(verdict.shed.empty());
}

TEST_F(AdmissionLadder, BackpressureRejectsFloodingTenant) {
  const AdmissionController admission(policy_, &costs_);
  AdmissionInput input;
  input.queued_of_tenant = policy_.max_queued_per_tenant;
  const auto verdict = admission.decide(small_request(), input);
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Reject);
  EXPECT_NE(verdict.reason.find("backpressure"), std::string::npos);
}

TEST_F(AdmissionLadder, LoneTenantBorrowsSpareCapacity) {
  AdmissionController admission(policy_, &costs_);
  admission.set_tenant_weight("a", 1.0);
  admission.set_tenant_weight("b", 1.0);
  // Tenant a's guarantee is half the capacity; with b idle, a's second
  // session still fits and is admitted as borrowed.
  const Real cost = costs_.price(small_request("a"));
  AdmissionInput input;
  input.outstanding_total = cost;
  input.outstanding_by_tenant["a"] = cost;
  const auto verdict = admission.decide(small_request("a"), input);
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_TRUE(verdict.borrowed);
}

TEST_F(AdmissionLadder, GuaranteeReclaimsBorrowedQueueSlot) {
  AdmissionController admission(policy_, &costs_);
  admission.set_tenant_weight("a", 1.0);
  admission.set_tenant_weight("b", 1.0);
  const Real cost = costs_.price(small_request("a"));
  // Tenant a has filled the service past b's guarantee with one borrowed
  // *queued* session; b's first submission reclaims exactly that slot.
  AdmissionInput input;
  input.outstanding_total = 2 * cost;
  input.outstanding_by_tenant["a"] = 2 * cost;
  input.queued.push_back({7, "a", 1, cost, /*borrowed=*/true, /*seq=*/7});
  const auto verdict = admission.decide(small_request("b"), input);
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_EQ(verdict.reason_code, ReasonCode::AdmitReclaimed);
  ASSERT_EQ(verdict.shed.size(), 1u);
  EXPECT_EQ(verdict.shed[0].id, 7u);
  EXPECT_EQ(verdict.shed[0].code, ReasonCode::ShedReclaimed);
  EXPECT_NE(verdict.shed[0].reason.find("reclaimed"), std::string::npos);

  // The rung serves only a request that stays within its guarantee: with
  // half a unit already outstanding, one more unit would put b beyond its
  // share, so a's borrowed slot stays and b is refused.
  input.outstanding_total += 0.5 * cost;
  input.outstanding_by_tenant["b"] = 0.5 * cost;
  SessionRequest beyond = small_request("b");
  beyond.allow_degraded = false;
  const auto refused = admission.decide(beyond, input);
  EXPECT_EQ(refused.action, AdmissionOutcome::Action::Reject);
  EXPECT_EQ(refused.reason_code, ReasonCode::RejectOverload);
  EXPECT_TRUE(refused.shed.empty());
}

TEST_F(AdmissionLadder, PrioritySheddingEvictsLowestYoungest) {
  const AdmissionController admission(policy_, &costs_);
  const Real cost = costs_.price(small_request());
  AdmissionInput input;
  input.outstanding_total = 2.4 * cost;
  input.outstanding_by_tenant["default"] = 2.4 * cost;
  input.queued.push_back({3, "default", 1, cost, false, 3});
  input.queued.push_back({5, "default", 1, cost, false, 5});  // youngest
  SessionRequest urgent = small_request();
  urgent.priority = 9;
  const auto verdict = admission.decide(urgent, input);
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_EQ(verdict.reason_code, ReasonCode::AdmitAfterShed);
  ASSERT_GE(verdict.shed.size(), 1u);
  EXPECT_EQ(verdict.shed[0].id, 5u);  // lowest priority, youngest first
  EXPECT_EQ(verdict.shed[0].code, ReasonCode::ShedPriority);
  EXPECT_NE(verdict.shed[0].reason.find("shed"), std::string::npos);
}

TEST_F(AdmissionLadder, OverloadDegradesFidelityWithReason) {
  const AdmissionController admission(policy_, &costs_);
  // A level-4 run alone exceeds the (level-2-sized) capacity; nothing is
  // queued to shed, so the ladder lands on degradation.
  SessionRequest big = small_request();
  big.mesh_level = 4;
  big.priority = 0;
  const auto verdict = admission.decide(big, {});
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::AdmitDegraded);
  EXPECT_LT(verdict.effective.mesh_level, big.mesh_level);
  EXPECT_GT(verdict.effective.output_every, big.output_every);
  EXPECT_NE(verdict.reason.find("degraded under overload"),
            std::string::npos);
}

TEST_F(AdmissionLadder, RejectionCarriesTheArithmetic) {
  const AdmissionController admission(policy_, &costs_);
  SessionRequest big = small_request();
  big.mesh_level = 4;
  big.allow_degraded = false;
  const auto verdict = admission.decide(big, {});
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Reject);
  EXPECT_NE(verdict.reason.find("overload"), std::string::npos);
  EXPECT_NE(verdict.reason.find("not permitted"), std::string::npos);
}

// ------------------------------------------------------------- fair queue

TEST(FairQueue, DwrrServesTenantsByWeight) {
  FairQueue queue;
  queue.set_weight("heavy", 3.0);
  queue.set_weight("light", 1.0);
  std::uint64_t id = 1;
  for (int i = 0; i < 12; ++i) {
    queue.push({id, "heavy", 1, 1.0, false, id});
    ++id;
    queue.push({id, "light", 1, 1.0, false, id});
    ++id;
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 16; ++i) {
    const auto e = queue.pop();
    ASSERT_TRUE(e.has_value());
    served[e->tenant] += 1;
  }
  // 3:1 weights over equal-cost work: heavy gets ~12 of 16 pops.
  EXPECT_GE(served["heavy"], 11);
  EXPECT_LE(served["heavy"], 13);
}

TEST(FairQueue, RemoveEvictsQueuedEntry) {
  FairQueue queue;
  queue.push({1, "a", 1, 1.0, false, 1});
  queue.push({2, "a", 1, 1.0, false, 2});
  EXPECT_TRUE(queue.remove(1));
  EXPECT_FALSE(queue.remove(1));
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 2u);
  EXPECT_TRUE(queue.empty());
}

// -------------------------------------------------------------- mesh store

TEST(MeshStore, CoResidentSessionsShareOneMesh) {
  MeshStore store;
  {
    const MeshLease a = store.acquire(2);
    const MeshLease b = store.acquire(2);
    EXPECT_EQ(a.get(), b.get());  // one instance, two refs
    EXPECT_EQ(store.refs(2), 2);
    EXPECT_EQ(store.resident_levels(), 1u);
  }
  EXPECT_EQ(store.refs(2), 0);
  EXPECT_EQ(store.resident_levels(), 0u);
}

// ---------------------------------------------------------- session manager

ServiceOptions small_service(int workers = 2) {
  ServiceOptions opts;
  opts.workers = workers;
  const CostModel costs;
  opts.admission.capacity_modeled_s = 100 * costs.price(small_request());
  return opts;
}

TEST(SessionManager, AdmittedSessionsCompleteBitwiseCorrect) {
  SessionManager service(small_service());
  const auto id1 = service.submit(small_request("a"));
  const auto id2 = service.submit(small_request("b"));
  ASSERT_TRUE(service.drain());

  for (const auto id : {id1, id2}) {
    const SessionResult r = service.result(id);
    EXPECT_EQ(r.state, SessionState::Completed) << r.reason;
    EXPECT_EQ(r.reason_code, ReasonCode::Completed);
    EXPECT_EQ(r.steps_done, 4);
    EXPECT_EQ(r.outputs_written, 2);
    EXPECT_EQ(r.replans, 0);
    EXPECT_GT(r.modeled_seconds, 0);
    // The service ran a hybrid schedule; the hash must still match the
    // plain reference integrator bit for bit.
    EXPECT_EQ(r.state_hash, reference_hash(r.mesh_level_used, 2, 4));
  }
}

TEST(SessionManager, TransientFaultsRetryWithBackoffThenSucceed) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  const auto clean_id = service.submit(req);
  req.chaos.fail_first_attempts = 2;
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::Completed) << r.reason;
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(service.stats().retries, 2u);
  // The two backoffs, 0.05 then 0.10 modeled s, are charged on top of
  // exactly what a clean run of the same request costs.
  const SessionResult clean = service.result(clean_id);
  ASSERT_EQ(clean.attempts, 1);
  EXPECT_NEAR(r.modeled_seconds, clean.modeled_seconds + 0.05 + 0.10, 1e-12);
}

TEST(SessionManager, PersistentTransientFaultFailsAfterBudget) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  req.chaos.fail_first_attempts = 100;
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::Failed);
  EXPECT_EQ(r.reason_code, ReasonCode::TransientExhausted);
  EXPECT_NE(r.reason.find("transient fault persisted"), std::string::npos);
}

TEST(SessionManager, DeadlineHonoredAtStepBoundary) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  req.steps = 50;
  const CostModel costs;
  // Budget for roughly three steps of a 50-step run.
  req.deadline_modeled_s = 3.2 * costs.step_seconds(req.mesh_level);
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::TimedOut);
  EXPECT_EQ(r.reason_code, ReasonCode::DeadlineExceeded);
  EXPECT_GT(r.steps_done, 0);
  EXPECT_LT(r.steps_done, 50);
  EXPECT_NE(r.reason.find("deadline"), std::string::npos);
}

TEST(SessionManager, CancelQueuedAndRunningSessions) {
  SessionManager service(small_service(1));
  service.set_paused(true);
  const auto id1 = service.submit(small_request());
  const auto id2 = service.submit(small_request());
  // id2 is queued behind id1 and paused; evict it before dispatch.
  EXPECT_TRUE(service.cancel(id2));
  EXPECT_EQ(service.result(id2).state, SessionState::Cancelled);
  EXPECT_EQ(service.result(id2).reason_code, ReasonCode::CancelledByUser);
  service.set_paused(false);
  ASSERT_TRUE(service.drain());
  EXPECT_EQ(service.result(id1).state, SessionState::Completed);
  EXPECT_FALSE(service.cancel(id1));  // already terminal
}

TEST(SessionManager, QuarantineDegradesOnlyTheVictimSession) {
  SessionManager service(small_service(2));
  SessionRequest victim = small_request("victim");
  victim.steps = 8;
  victim.chaos.quarantine_accel_at_step = 3;
  SessionRequest bystander = small_request("bystander");
  bystander.steps = 8;

  const auto vid = service.submit(victim);
  const auto bid = service.submit(bystander);
  ASSERT_TRUE(service.drain());

  const SessionResult v = service.result(vid);
  const SessionResult b = service.result(bid);
  // The victim healed: quarantined its device, replanned, still bitwise.
  EXPECT_EQ(v.state, SessionState::Completed) << v.reason;
  EXPECT_GE(v.replans, 1);
  EXPECT_EQ(v.state_hash, reference_hash(v.mesh_level_used, 2, 8));
  // The co-resident session never noticed.
  EXPECT_EQ(b.state, SessionState::Completed) << b.reason;
  EXPECT_EQ(b.replans, 0);
  EXPECT_EQ(b.state_hash, v.state_hash);  // same experiment, same bits
}

TEST(SessionManager, FinishedSessionsLeaveNoScopedMetrics) {
  // Each session's hybrid publishes service.session<id>.resilience.health.*
  // series; the manager erases them once the session is terminal, so a
  // long-running service's registry does not grow with every session.
  SessionManager service(small_service(2));
  SessionRequest victim = small_request("victim");
  victim.steps = 8;
  victim.chaos.quarantine_accel_at_step = 3;
  SessionRequest retried = small_request("retried");
  retried.chaos.fail_first_attempts = 1;
  const auto vid = service.submit(victim);
  const auto rid = service.submit(retried);
  const auto pid = service.submit(small_request("plain"));
  ASSERT_TRUE(service.drain());
  for (const auto id : {vid, rid, pid})
    EXPECT_EQ(service.result(id).state, SessionState::Completed)
        << service.result(id).reason;
  EXPECT_GE(service.result(vid).replans, 1);  // a health transition happened

  const auto scoped = [](const std::string& name) {
    const std::string prefix = "service.session";
    return name.starts_with(prefix) && name.size() > prefix.size() &&
           std::isdigit(static_cast<unsigned char>(name[prefix.size()]));
  };
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters)
    EXPECT_FALSE(scoped(name)) << name;
  for (const auto& [name, value] : snap.gauges)
    EXPECT_FALSE(scoped(name)) << name;
  for (const auto& [name, value] : snap.histograms)
    EXPECT_FALSE(scoped(name)) << name;
}

TEST(SessionManager, ThrowingSessionFailsAloneAndServiceSurvives) {
  SessionManager service(small_service(2));
  SessionRequest bad = small_request();
  bad.test_case = 99;  // make_test_case throws
  const auto bad_id = service.submit(bad);
  const auto good_id = service.submit(small_request());
  ASSERT_TRUE(service.drain());

  EXPECT_EQ(service.result(bad_id).state, SessionState::Failed);
  EXPECT_EQ(service.result(bad_id).reason_code, ReasonCode::SessionFault);
  EXPECT_NE(service.result(bad_id).reason.find("session threw"),
            std::string::npos);
  EXPECT_EQ(service.result(good_id).state, SessionState::Completed);
  // The service still takes work after a member died.
  const auto next = service.submit(small_request());
  ASSERT_TRUE(service.drain());
  EXPECT_EQ(service.result(next).state, SessionState::Completed);
}

TEST(SessionManager, SaturationSharesFollowTenantWeights) {
  // Capacity for ~6 small sessions; tenants weighted 2:1 submit 12 each
  // round-robin while dispatch is paused, so admission alone decides who
  // gets capacity. Admitted-work shares must land within 10% of 2/3:1/3.
  ServiceOptions opts;
  opts.workers = 2;
  const CostModel costs;
  const Real unit = costs.price(small_request());
  opts.admission.capacity_modeled_s = 6 * unit + unit / 2;
  opts.admission.max_queued_per_tenant = 32;
  SessionManager service(opts);
  service.set_tenant_weight("gold", 2.0);
  service.set_tenant_weight("bronze", 1.0);
  service.set_paused(true);
  for (int i = 0; i < 12; ++i) {
    SessionRequest gold = small_request("gold");
    SessionRequest bronze = small_request("bronze");
    gold.allow_degraded = bronze.allow_degraded = false;
    service.submit(gold);
    service.submit(bronze);
  }
  const ServiceStats at_saturation = service.stats();
  service.set_paused(false);
  ASSERT_TRUE(service.drain());

  const Real gold_s = at_saturation.admitted_seconds_by_tenant.at("gold");
  const Real bronze_s =
      at_saturation.admitted_seconds_by_tenant.at("bronze");
  const Real share = gold_s / (gold_s + bronze_s);
  EXPECT_NEAR(share, 2.0 / 3.0, 0.1 * 2.0 / 3.0);
  EXPECT_GT(service.stats().rejected, 0u);  // it really was saturated
}

// ------------------------------------------- slo fold + flight recorder

/// Every line of a text file, verbatim.
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// One tenant's count in one dimension of a fold.
void expect_count(const std::map<std::string, SloCount>& dims,
                  const std::string& dimension, std::uint64_t ok,
                  std::uint64_t total) {
  const auto it = dims.find(dimension);
  ASSERT_NE(it, dims.end()) << dimension;
  EXPECT_EQ(it->second.ok, ok) << dimension;
  EXPECT_EQ(it->second.total, total) << dimension;
}

TEST(SloFold, SessionOutcomesFoldFromTheEventLog) {
  const std::string path =
      "test_slo_events_" + std::to_string(::getpid()) + ".jsonl";
  auto& events = obs::telemetry::EventLog::global();
  events.open(path);
  {
    SessionManager service(small_service(1));
    service.submit(small_request("a"));
    SessionRequest doomed = small_request("a");
    doomed.chaos.fail_first_attempts = 100;
    service.submit(doomed);
    ASSERT_TRUE(service.drain());
  }
  events.close();
  std::vector<obs::json::Value> facts;
  for (const std::string& line : read_lines(path))
    facts.push_back(obs::json::parse(line));
  std::remove(path.c_str());

  // A budget no decision misses, even under a sanitizer: this test checks
  // which facts count; the synthetic one below checks the budget.
  const SloFold fold = fold_slo(facts, 1e9);
  ASSERT_EQ(fold.size(), 1u);
  const auto& a = fold.at("a");
  EXPECT_EQ(a.size(), 4u);
  expect_count(a, "errors", 1, 2);  // one completed, one failed
  expect_count(a, "deadline", 2, 2);
  expect_count(a, "fidelity", 2, 2);
  expect_count(a, "admission_latency", 2, 2);
  EXPECT_DOUBLE_EQ(a.at("errors").attainment(), 0.5);
}

TEST(SloFold, EachFactCountsOnlyInItsDimension) {
  using obs::telemetry::WideEvent;
  const auto line = [](const WideEvent& fact) {
    return obs::json::parse(obs::telemetry::to_jsonl(fact));
  };
  const auto terminal = [&line](std::uint64_t id, const char* state) {
    return line(WideEvent("terminal", "t", id).add("state", state));
  };
  const std::vector<obs::json::Value> facts = {
      line(WideEvent("admit", "t", 1).add("latency_us", 10.0)),
      line(WideEvent("admit_degraded", "t", 2).add("latency_us", 10.0)),
      line(WideEvent("reject", "t", 3).add("latency_us", 2000.0)),
      // A shutdown reject was never timed: no latency sample.
      line(WideEvent("reject", "t", 4).add("code", "reject_shutdown")),
      terminal(1, "completed"),
      terminal(2, "failed"),
      terminal(5, "timed-out"),
      terminal(6, "cancelled"),
      // Shed and rejected sessions never ran.
      terminal(7, "shed"),
      terminal(3, "rejected"),
      line(WideEvent("dispatch", "u", 8).add("worker", 0)),
  };
  const SloFold fold = fold_slo(facts, 1000.0);
  ASSERT_EQ(fold.size(), 1u);  // "u" has no SLO fact
  const auto& t = fold.at("t");
  expect_count(t, "admission_latency", 2, 3);  // 2000 us > 1000 us budget
  expect_count(t, "fidelity", 1, 2);           // admit_degraded misses
  expect_count(t, "deadline", 3, 4);           // timed-out misses
  expect_count(t, "errors", 3, 4);             // only failed misses
  EXPECT_DOUBLE_EQ(t.at("fidelity").attainment(), 0.5);
  EXPECT_DOUBLE_EQ(SloCount{}.attainment(), 1.0);
}

TEST(SessionManager, FailureDumpsTheFlightRecorder) {
  const std::string dir = "test_flight_dumps";
  std::filesystem::remove_all(dir);
  ServiceOptions opts = small_service(1);
  opts.flight_dump = obs::telemetry::FlightDumpPolicy::parse(dir);
  // A configuration the dump must carry: read when the dump is written.
  ::setenv("MPAS_CHECKPOINT_KEEP", "7", 1);
  SessionManager service(opts);

  const auto ok_id = service.submit(small_request("fine"));
  SessionRequest doomed = small_request("doomed");
  doomed.chaos.fail_first_attempts = 100;
  const auto bad_id = service.submit(doomed);
  const bool drained = service.drain();
  ::unsetenv("MPAS_CHECKPOINT_KEEP");
  ASSERT_TRUE(drained);
  ASSERT_EQ(service.result(ok_id).state, SessionState::Completed);
  ASSERT_EQ(service.result(bad_id).state, SessionState::Failed);

  // Only the failure produced a black box; the healthy session stayed
  // output-free.
  EXPECT_EQ(service.stats().flight_dumps, 1u);
  const std::string ok_path =
      dir + "/flight_session" + std::to_string(ok_id) + ".jsonl";
  EXPECT_FALSE(std::filesystem::exists(ok_path));

  const std::string bad_path =
      dir + "/flight_session" + std::to_string(bad_id) + ".jsonl";
  ASSERT_TRUE(std::filesystem::exists(bad_path)) << bad_path;
  std::vector<obs::json::Value> lines;
  for (const std::string& line : read_lines(bad_path))
    lines.push_back(obs::json::parse(line));
  ASSERT_FALSE(lines.empty());
  // The first line is the flight_dump fact naming the trigger and the
  // ring's counts: every fact the session recorded is held.
  const obs::json::Value& head = lines.front();
  EXPECT_EQ(head.at("kind").as_string(), "flight_dump");
  EXPECT_EQ(head.at("attrs").at("trigger").as_string(), "failure");
  EXPECT_EQ(head.at("tenant").as_string(), "doomed");
  EXPECT_DOUBLE_EQ(head.at("session").as_number(),
                   static_cast<double>(bad_id));
  EXPECT_DOUBLE_EQ(head.at("attrs").at("capacity").as_number(), 256);
  EXPECT_DOUBLE_EQ(head.at("attrs").at("dropped").as_number(), 0);
  EXPECT_DOUBLE_EQ(head.at("attrs").at("recorded").as_number(),
                   static_cast<double>(lines.size() - 1));
  // ...and the configuration the run used, one attr per MPAS_* variable.
  for (const env::Variable& var : env::kVariables)
    EXPECT_TRUE(head.at("attrs").has(var.name)) << var.name;
  EXPECT_EQ(head.at("attrs").at("MPAS_CHECKPOINT_KEEP").as_string(), "7");
  // The box replays the session's fate: admission, dispatch, the retry
  // storm, and the terminal verdict.
  std::map<std::string, int> kinds;
  for (std::size_t i = 1; i < lines.size(); ++i)
    kinds[lines[i].at("kind").as_string()] += 1;
  EXPECT_EQ(kinds["admit"], 1);
  EXPECT_EQ(kinds["dispatch"], 1);
  EXPECT_GE(kinds["retry"], 2);
  EXPECT_EQ(kinds["terminal"], 1);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- service facts

// One fact, one line: the event log, the durability journal and every
// flight dump write the same bytes for the same fact, so each admitted
// session's admission and fate read identically in all three files.
TEST(ServiceFacts, EverySinkWritesTheSameLine) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mpas_service_facts_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string events_path = (dir / "events.jsonl").string();
  auto& events = obs::telemetry::EventLog::global();
  events.open(events_path);

  ServiceOptions opts = small_service(1);
  opts.durable.dir = (dir / "durable").string();
  opts.durable.every = 2;
  const std::string flight_dir = (dir / "flight").string();
  opts.flight_dump =
      obs::telemetry::FlightDumpPolicy::parse("all:" + flight_dir);
  std::vector<std::uint64_t> admitted;
  {
    SessionManager service(opts);
    service.set_paused(true);
    const auto fine = service.submit(small_request("fine"));
    SessionRequest doomed = small_request("doomed");
    doomed.chaos.fail_first_attempts = 100;
    const auto bad = service.submit(doomed);
    const auto queued = service.submit(small_request("impatient"));
    ASSERT_TRUE(service.cancel(queued));
    service.set_paused(false);
    ASSERT_TRUE(service.drain());
    EXPECT_EQ(service.result(fine).state, SessionState::Completed);
    EXPECT_EQ(service.result(bad).state, SessionState::Failed);
    EXPECT_EQ(service.result(queued).state, SessionState::Cancelled);
    admitted = {fine, bad, queued};
  }
  events.close();

  const std::vector<std::string> log = read_lines(events_path);
  const std::set<std::string> logged(log.begin(), log.end());
  const std::vector<std::string> journal =
      read_lines(opts.durable.journal_path());
  ASSERT_FALSE(journal.empty());
  for (const std::string& line : journal)
    EXPECT_TRUE(logged.count(line) == 1) << "journal line not logged: "
                                         << line;

  // Admit and terminal lines of `id` in one file.
  const auto count = [](const std::vector<std::string>& lines,
                        std::uint64_t id, bool admit) {
    int n = 0;
    for (const std::string& line : lines) {
      const auto v = obs::json::parse(line);
      const std::string kind = v.at("kind").as_string();
      const bool match = admit ? kind == "admit" || kind == "admit_degraded"
                               : kind == "terminal";
      if (match && v.at("session").as_number() == static_cast<double>(id))
        n += 1;
    }
    return n;
  };
  for (const std::uint64_t id : admitted) {
    const std::string dump_path =
        flight_dir + "/flight_session" + std::to_string(id) + ".jsonl";
    const std::vector<std::string> dump = read_lines(dump_path);
    ASSERT_GE(dump.size(), 2u) << dump_path;
    const auto head = obs::json::parse(dump[0]);
    EXPECT_EQ(head.at("kind").as_string(), "flight_dump");
    EXPECT_DOUBLE_EQ(head.at("attrs").at("recorded").as_number(),
                     static_cast<double>(dump.size() - 1));
    EXPECT_DOUBLE_EQ(head.at("attrs").at("dropped").as_number(), 0);
    // The flight_dump fact itself reaches the event log too.
    for (const std::string& line : dump)
      EXPECT_TRUE(logged.count(line) == 1) << "dump line not logged: "
                                           << line;
    for (const auto* file : {&log, &journal, &dump}) {
      EXPECT_EQ(count(*file, id, true), 1) << "session " << id;
      EXPECT_EQ(count(*file, id, false), 1) << "session " << id;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpas::service
