// The resilience layer's contract, bottom-up: envelopes detect any damage,
// the injector fires deterministically, checkpoints round-trip bitwise, the
// channel recovers from drops/corruption (and escalates when it cannot),
// and — the headline — a distributed run under a seeded fault schedule with
// recovery enabled produces owned-cell results bitwise identical to a
// fault-free run, with a deterministic incident report.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "comm/simworld.hpp"
#include "fault_helpers.hpp"
#include "resilience/channel.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/envelope.hpp"
#include "resilience/fault.hpp"
#include "util/error.hpp"

namespace mpas::resilience {
namespace {

using mpas::testing::expect_bitwise_equal;
using mpas::testing::fault_free_run;
using mpas::testing::gather_state;
using mpas::testing::make_distributed;
using mpas::testing::standard_params;

// ---------------------------------------------------------------- envelope

TEST(Envelope, SealOpenRoundTrip) {
  const std::vector<Real> payload{1.5, -0.0, 2.25e-308, 9e99};
  const auto sealed = seal(42, payload);
  ASSERT_EQ(sealed.size(), payload.size() + kEnvelopeWords);
  const auto opened = open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->seq, 42u);
  expect_bitwise_equal(opened->payload, payload, "payload");
}

TEST(Envelope, EmptyPayloadRoundTrips) {
  const auto opened = open(seal(7, {}));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->seq, 7u);
  EXPECT_TRUE(opened->payload.empty());
}

TEST(Envelope, AnySingleBitFlipIsDetected) {
  const std::vector<Real> payload{3.0, 4.0, 5.0};
  const auto sealed = seal(3, payload);
  // Header and payload words alike: one flipped bit, anywhere, kills it.
  for (std::size_t w = 0; w < sealed.size(); ++w) {
    for (std::uint32_t bit : {0u, 31u, 52u, 63u}) {
      auto damaged = sealed;
      std::uint64_t raw;
      std::memcpy(&raw, &damaged[w], sizeof(raw));
      raw ^= std::uint64_t{1} << bit;
      std::memcpy(&damaged[w], &raw, sizeof(raw));
      EXPECT_FALSE(open(damaged).has_value())
          << "flip of word " << w << " bit " << bit << " went undetected";
    }
  }
}

TEST(Envelope, TruncationIsDetected) {
  auto sealed = seal(0, {1.0, 2.0});
  sealed.pop_back();
  EXPECT_FALSE(open(sealed).has_value());
  EXPECT_FALSE(open({1.0, 2.0}).has_value());  // runt: shorter than a header
  EXPECT_FALSE(open({}).has_value());
}

TEST(Envelope, ChecksumBindsTheSequenceNumber) {
  const std::vector<Real> payload{1.0, 2.0};
  // The same bytes under a different seq must not checksum clean — a
  // replayed payload cannot masquerade as the next message.
  EXPECT_NE(checksum(1, payload.data(), payload.size()),
            checksum(2, payload.data(), payload.size()));
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, CountedSpecFiresOnExactEvents) {
  FaultInjector inj;
  FaultSpec spec;
  spec.kind = FaultKind::MsgDrop;
  spec.at_event = 2;
  spec.repeat = 2;
  inj.add(spec);
  EXPECT_FALSE(inj.exhausted());
  std::vector<bool> fired;
  for (int e = 0; e < 6; ++e)
    fired.push_back(!inj.on_message(0, 1, 0).empty());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(inj.stats().of(FaultKind::MsgDrop), 2u);
}

TEST(FaultInjector, SiteFiltersSelectTheirEvents) {
  FaultInjector inj;
  FaultSpec spec;
  spec.kind = FaultKind::MsgCorrupt;
  spec.from = 0;
  spec.to = 1;
  spec.tag = 7;
  inj.add(spec);
  EXPECT_TRUE(inj.on_message(1, 0, 7).empty());   // wrong direction
  EXPECT_TRUE(inj.on_message(0, 1, 3).empty());   // wrong tag
  EXPECT_TRUE(inj.on_transfer(0).empty());        // wrong site entirely
  EXPECT_TRUE(inj.on_step(0, 0).empty());
  EXPECT_FALSE(inj.on_message(0, 1, 7).empty());  // the armed site
  // Mismatched queries did not advance the event counter.
  EXPECT_EQ(inj.stats().total(), 1u);
}

TEST(FaultInjector, MalformedSpecsAreRejected) {
  FaultInjector inj;
  FaultSpec bad;
  bad.repeat = 0;
  EXPECT_THROW(inj.add(bad), Error);
  bad = {};
  bad.probability = 1.5;
  EXPECT_THROW(inj.add(bad), Error);
  bad = {};
  bad.bit = 64;
  EXPECT_THROW(inj.add(bad), Error);
  bad = {};
  bad.kind = FaultKind::Count;
  EXPECT_THROW(inj.add(bad), Error);
  bad = {};
  bad.stall_seconds = -1;
  EXPECT_THROW(inj.add(bad), Error);
  EXPECT_EQ(inj.num_armed(), 0u);
}

TEST(FaultInjector, ProbabilisticStreamIsDeterministicForAFixedSeed) {
  const auto draw_pattern = [](std::uint64_t seed) {
    FaultInjector inj(seed);
    FaultSpec spec;
    spec.kind = FaultKind::MsgDrop;
    spec.probability = 0.5;
    inj.add(spec);
    std::vector<bool> fired;
    for (int e = 0; e < 64; ++e)
      fired.push_back(!inj.on_message(0, 1, 0).empty());
    return fired;
  };
  EXPECT_EQ(draw_pattern(123), draw_pattern(123));
  EXPECT_NE(draw_pattern(123), draw_pattern(321));
}

TEST(FaultInjector, ResetReproducesTheSchedule) {
  FaultInjector inj(99);
  FaultSpec counted;
  counted.kind = FaultKind::TransferFail;
  counted.at_event = 1;
  inj.add(counted);
  FaultSpec random;
  random.kind = FaultKind::MsgDrop;
  random.probability = 0.3;
  inj.add(random);
  const auto run = [&] {
    std::vector<bool> fired;
    for (int e = 0; e < 8; ++e) {
      fired.push_back(!inj.on_transfer(2).empty());
      fired.push_back(!inj.on_message(0, 1, 0).empty());
    }
    return fired;
  };
  const auto first = run();
  inj.reset();
  EXPECT_EQ(inj.stats().total(), 0u);
  EXPECT_EQ(run(), first);
}

// -------------------------------------------------------------- checkpoint

TEST(CheckpointStore, SaveRestoreRoundTripsBitwise) {
  Checkpoint cp;
  EXPECT_FALSE(cp.valid());
  EXPECT_THROW(static_cast<void>(cp.step()), Error);
  cp.begin(10);
  const std::vector<Real> a{1.0, -0.0, 5e-324, 1e308};
  const std::vector<Real> b{2.0};
  cp.save(0, 3, a);
  cp.save(1, 3, b);
  EXPECT_FALSE(cp.valid());  // staged, not yet published
  cp.commit();
  EXPECT_TRUE(cp.valid());
  EXPECT_EQ(cp.step(), 10);
  EXPECT_EQ(cp.bytes(), 5 * sizeof(Real));
  std::vector<Real> out(a.size(), 99.0);
  cp.restore(0, 3, out);
  expect_bitwise_equal(out, a, "restored slot");
}

TEST(CheckpointStore, GuardsMisuse) {
  Checkpoint cp;
  std::vector<Real> out(2);
  EXPECT_THROW(cp.save(0, 0, out), Error);  // before begin()
  EXPECT_THROW(cp.commit(), Error);         // nothing staged
  cp.begin(0);
  cp.save(0, 0, std::vector<Real>{1.0, 2.0, 3.0});
  EXPECT_THROW(cp.restore(0, 0, out), Error);  // not committed yet
  cp.commit();
  EXPECT_THROW(cp.restore(0, 0, out), Error);  // size mismatch
  EXPECT_THROW(cp.restore(5, 0, out), Error);  // unknown rank
  EXPECT_THROW(cp.begin(-1), Error);
}

// The regression the double buffer exists for: a snapshot that is begun
// but never committed (a fault mid-save, say) must leave the previously
// committed snapshot fully restorable — there is no window in which the
// old state is discarded before the new one is whole.
TEST(CheckpointStore, HalfWrittenSnapshotLeavesCommittedIntact) {
  Checkpoint cp;
  const std::vector<Real> good{1.0, 2.0, 3.0};
  cp.begin(5);
  cp.save(0, 0, good);
  cp.commit();

  // A new snapshot starts and dies half-written...
  cp.begin(9);
  cp.save(0, 0, std::vector<Real>{-1.0, -2.0, -3.0});
  // ...(no commit): the rollback target is still the step-5 snapshot.
  EXPECT_TRUE(cp.valid());
  EXPECT_EQ(cp.step(), 5);
  std::vector<Real> out(good.size());
  cp.restore(0, 0, out);
  expect_bitwise_equal(out, good, "committed snapshot after torn staging");

  // abandon() drops the torn staging; a fresh begin/commit then publishes.
  cp.abandon();
  EXPECT_THROW(cp.commit(), Error);
  cp.begin(12);
  cp.save(0, 0, std::vector<Real>{7.0, 8.0, 9.0});
  cp.commit();
  EXPECT_EQ(cp.step(), 12);
  cp.restore(0, 0, out);
  EXPECT_EQ(out[0], 7.0);
}

// ----------------------------------------------------------------- channel

/// In-memory transport with scriptable failure behaviour, for exercising
/// the channel without a SimWorld.
class ScriptedTransport final : public Transport {
 public:
  int drop_next = 0;      // swallow the next N posts
  bool drop_all = false;  // swallow everything (escalation tests)
  int corrupt_next = 0;   // flip one bit in the next N posts

  void send(int from, int to, int tag, std::vector<Real> payload) override {
    last_raw = payload;
    if (drop_all) return;
    if (drop_next > 0) {
      drop_next -= 1;
      return;
    }
    if (corrupt_next > 0 && !payload.empty()) {
      corrupt_next -= 1;
      std::uint64_t raw;
      std::memcpy(&raw, &payload.back(), sizeof(raw));
      raw ^= std::uint64_t{1} << 17;
      std::memcpy(&payload.back(), &raw, sizeof(raw));
    }
    queues_[{from, to, tag}].push_back(std::move(payload));
  }

  std::optional<std::vector<Real>> try_recv(int to, int from,
                                            int tag) override {
    auto& q = queues_[{from, to, tag}];
    if (q.empty()) return std::nullopt;
    auto payload = std::move(q.front());
    q.pop_front();
    return payload;
  }

  /// Re-post the raw bytes of the last send (delay/duplicate simulation).
  void replay_last(int from, int to, int tag) {
    queues_[{from, to, tag}].push_back(last_raw);
  }

  std::vector<Real> last_raw;

 private:
  std::map<std::tuple<int, int, int>, std::deque<std::vector<Real>>> queues_;
};

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.resend_wait_ms = 0.1;
  p.total_timeout_ms = 5000;
  return p;
}

TEST(ResilientChannel, DeliversInOrder) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), /*recover=*/true);
  ch.send(0, 1, 5, {1.0, 2.0});
  ch.send(0, 1, 5, {3.0});
  EXPECT_EQ(ch.recv(1, 0, 5, 2), (std::vector<Real>{1.0, 2.0}));
  EXPECT_EQ(ch.recv(1, 0, 5, 1), (std::vector<Real>{3.0}));
  const auto s = ch.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.detected_drops + s.detected_corruptions + s.retransmits, 0u);
}

TEST(ResilientChannel, RecoversFromADrop) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), true);
  t.drop_next = 1;
  ch.send(0, 1, 5, {7.0, 8.0});
  EXPECT_EQ(ch.recv(1, 0, 5, 2), (std::vector<Real>{7.0, 8.0}));
  const auto s = ch.stats();
  EXPECT_EQ(s.detected_drops, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_GT(s.modeled_seconds_lost, 0.0);
}

TEST(ResilientChannel, RecoversFromCorruption) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), true);
  t.corrupt_next = 1;
  ch.send(0, 1, 5, {7.0, 8.0});
  EXPECT_EQ(ch.recv(1, 0, 5, 2), (std::vector<Real>{7.0, 8.0}));
  const auto s = ch.stats();
  EXPECT_EQ(s.detected_corruptions, 1u);
  EXPECT_EQ(s.retransmits, 1u);
}

TEST(ResilientChannel, EscalatesWhenTheFaultPersists) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), true);
  t.drop_all = true;
  ch.send(0, 1, 5, {1.0});
  try {
    static_cast<void>(ch.recv(1, 0, 5, 1));
    FAIL() << "expected escalation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("persists after 3 attempts"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResilientChannel, DetectionWithoutRecoveryThrowsImmediately) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), /*recover=*/false);
  t.corrupt_next = 1;
  ch.send(0, 1, 5, {1.0});
  try {
    static_cast<void>(ch.recv(1, 0, 5, 1));
    FAIL() << "expected detection to escalate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("recovery disabled"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ch.stats().detected_corruptions, 1u);
  EXPECT_EQ(ch.stats().retransmits, 0u);
}

TEST(ResilientChannel, StaleDuplicateIsDiscarded) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), true);
  ch.send(0, 1, 5, {1.0});
  EXPECT_EQ(ch.recv(1, 0, 5, 1), (std::vector<Real>{1.0}));
  t.replay_last(0, 1, 5);  // a delayed copy arrives after delivery
  ch.drain_stale(1, 0, 5);
  EXPECT_EQ(ch.stats().stale_discarded, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);
}

TEST(ResilientChannel, DrainRefusesToSwallowLiveMessages) {
  ScriptedTransport t;
  ResilientChannel ch(t, fast_policy(), true);
  ch.send(0, 1, 5, {1.0});  // never received: still live
  EXPECT_THROW(ch.drain_stale(1, 0, 5), Error);
}

TEST(ResilientChannel, RecvTimesOutOnASilentStream) {
  ScriptedTransport t;
  RetryPolicy p = fast_policy();
  p.total_timeout_ms = 50;
  ResilientChannel ch(t, p, true);
  EXPECT_THROW(static_cast<void>(ch.recv(1, 0, 5, 1)), Error);
}

// --------------------------------------------- distributed-run integration

/// The seeded mixed schedule the headline tests run: one of each message
/// fault plus one SDC and one stall, all counted (deterministic).
void arm_headline_schedule(FaultInjector& inj) {
  FaultSpec drop;
  drop.kind = FaultKind::MsgDrop;
  drop.at_event = 5;
  inj.add(drop);
  FaultSpec corrupt;
  corrupt.kind = FaultKind::MsgCorrupt;
  corrupt.at_event = 17;
  corrupt.word = 2;
  inj.add(corrupt);
  FaultSpec delay;
  delay.kind = FaultKind::MsgDelay;
  delay.at_event = 29;
  inj.add(delay);
  FaultSpec sdc;
  sdc.kind = FaultKind::StateCorrupt;
  sdc.rank = 1;
  sdc.step = 3;
  sdc.word = 4;
  inj.add(sdc);
  FaultSpec stall;
  stall.kind = FaultKind::RankStall;
  stall.rank = 2;
  stall.step = 1;
  stall.stall_seconds = 2e-3;
  inj.add(stall);
}

class ResilientRun : public ::testing::Test {
 protected:
  ResilientRun()
      : mesh(mpas::testing::small_mesh()),
        tc(sw::make_test_case(5)),
        params(standard_params(*tc, mesh)) {}

  mesh::VoronoiMesh mesh;
  std::unique_ptr<sw::TestCase> tc;
  sw::SwParams params;
  static constexpr int kRanks = 4;
  static constexpr int kSteps = 6;
};

TEST_F(ResilientRun, RecoveredRunMatchesFaultFreeBitwise) {
  const auto truth = fault_free_run(mesh, kRanks, *tc, params, kSteps);

  FaultInjector inj;
  arm_headline_schedule(inj);
  comm::ResilienceOptions opts;
  opts.injector = &inj;
  opts.checkpoint_interval = 2;
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  d->run(kSteps);

  // The one property everything else serves: owned results are bitwise
  // identical to the fault-free trajectory.
  expect_bitwise_equal(gather_state(*d), truth);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(d->step_index(), kSteps);

  // And the incident report matches the schedule exactly.
  const auto s = d->resilience_stats();
  EXPECT_EQ(s.injected.of(FaultKind::MsgDrop), 1u);
  EXPECT_EQ(s.injected.of(FaultKind::MsgCorrupt), 1u);
  EXPECT_EQ(s.injected.of(FaultKind::MsgDelay), 1u);
  EXPECT_EQ(s.injected.of(FaultKind::StateCorrupt), 1u);
  EXPECT_EQ(s.injected.of(FaultKind::RankStall), 1u);
  // A delayed message manifests as a detected drop whose retransmit later
  // shows up as a stale duplicate.
  EXPECT_EQ(s.channel.detected_drops, 2u);
  EXPECT_EQ(s.channel.detected_corruptions, 1u);
  EXPECT_EQ(s.channel.retransmits, 3u);
  EXPECT_EQ(s.channel.stale_discarded, 1u);
  EXPECT_EQ(s.poisoned_states_detected, 1u);
  EXPECT_EQ(s.rollbacks, 1u);
  // SDC at step 3, checkpoint cadence 2: roll back to step 2, replay 2.
  EXPECT_EQ(s.steps_replayed, 2u);
  EXPECT_EQ(s.health_checks, static_cast<std::uint64_t>(kSteps) + 2u);
  EXPECT_EQ(s.stalls, 1u);
  EXPECT_EQ(s.modeled_seconds_lost, 2e-3);          // the stall
  EXPECT_GT(s.channel.modeled_seconds_lost, 0.0);   // lost wire time

  // The report renders through the table machinery.
  const std::string report = s.to_string();
  EXPECT_NE(report.find("rollbacks"), std::string::npos);
  EXPECT_NE(report.find("injected msg-drop"), std::string::npos);
}

TEST_F(ResilientRun, SameScheduleWithRecoveryDisabledRaises) {
  FaultInjector inj;
  arm_headline_schedule(inj);
  comm::ResilienceOptions opts;
  opts.injector = &inj;
  opts.recover = false;
  opts.checkpoint_interval = 2;
  EXPECT_THROW(
      {
        auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
        d->run(kSteps);
      },
      Error);
  // Detection happened; nothing was silently accepted.
  EXPECT_GT(inj.stats().total(), 0u);
}

TEST_F(ResilientRun, RollbackReplaysToTheFaultFreeTrajectory) {
  const auto truth = fault_free_run(mesh, kRanks, *tc, params, kSteps);

  FaultInjector inj;
  FaultSpec sdc;
  sdc.kind = FaultKind::StateCorrupt;
  sdc.rank = 0;
  sdc.step = 4;
  inj.add(sdc);
  comm::ResilienceOptions opts;
  opts.injector = &inj;
  opts.checkpoint_interval = 3;
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  d->run(kSteps);

  expect_bitwise_equal(gather_state(*d), truth);
  const auto s = d->resilience_stats();
  EXPECT_EQ(s.poisoned_states_detected, 1u);
  EXPECT_EQ(s.rollbacks, 1u);
  // SDC after step 4, last checkpoint at step 3: replay steps 3 and 4.
  EXPECT_EQ(s.steps_replayed, 2u);
  // The message layer saw no faults at all.
  EXPECT_EQ(s.channel.detected_drops + s.channel.detected_corruptions, 0u);
}

TEST_F(ResilientRun, StatsAreDeterministicAcrossIdenticalRuns) {
  const auto run_once = [&] {
    FaultInjector inj(0xC0FFEEull);
    arm_headline_schedule(inj);
    comm::ResilienceOptions opts;
    opts.injector = &inj;
    opts.checkpoint_interval = 2;
    auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
    d->run(kSteps);
    return d->resilience_stats();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.injected.injected, b.injected.injected);
  EXPECT_EQ(a.channel.sent, b.channel.sent);
  EXPECT_EQ(a.channel.delivered, b.channel.delivered);
  EXPECT_EQ(a.channel.detected_drops, b.channel.detected_drops);
  EXPECT_EQ(a.channel.detected_corruptions, b.channel.detected_corruptions);
  EXPECT_EQ(a.channel.stale_discarded, b.channel.stale_discarded);
  EXPECT_EQ(a.channel.retransmits, b.channel.retransmits);
  EXPECT_EQ(a.health_checks, b.health_checks);
  EXPECT_EQ(a.poisoned_states_detected, b.poisoned_states_detected);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.steps_replayed, b.steps_replayed);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.modeled_seconds_lost, b.modeled_seconds_lost);
}

TEST_F(ResilientRun, FaultFreeOverheadPathIsBitwiseClean) {
  // Envelopes + health checks + checkpoints with no injector: pure
  // overhead, zero numerical effect.
  const auto truth = fault_free_run(mesh, kRanks, *tc, params, kSteps);
  comm::ResilienceOptions opts;  // no injector
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  d->run(kSteps);
  expect_bitwise_equal(gather_state(*d), truth);
  const auto s = d->resilience_stats();
  EXPECT_EQ(s.health_checks, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(s.injected.total() + s.channel.detected_drops +
                s.channel.detected_corruptions + s.rollbacks,
            0u);
}

TEST_F(ResilientRun, ThreadedRunRecoversFromMessageFaults) {
  // Ranks computing concurrently on the rank pool, with drops and
  // corruption on the wire: message-level recovery must still land bitwise
  // on the fault-free trajectory with exact counts — the exchange on the
  // calling thread keeps the message order, so the N-th message is the
  // same message on every run (and, under TSan/ASan, the locking is
  // proven sound).
  const auto truth = fault_free_run(mesh, kRanks, *tc, params, kSteps);

  FaultInjector inj;
  FaultSpec drop;
  drop.kind = FaultKind::MsgDrop;
  drop.at_event = 20;
  inj.add(drop);
  FaultSpec corrupt;
  corrupt.kind = FaultKind::MsgCorrupt;
  corrupt.at_event = 60;
  corrupt.word = 1;
  inj.add(corrupt);

  comm::ResilienceOptions opts;
  opts.injector = &inj;
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  d->run(kSteps);

  expect_bitwise_equal(gather_state(*d), truth);
  EXPECT_TRUE(inj.exhausted());
  const auto s = d->resilience_stats();
  EXPECT_EQ(s.channel.detected_drops, 1u);
  EXPECT_EQ(s.channel.detected_corruptions, 1u);
  EXPECT_EQ(s.channel.retransmits, 2u);
  EXPECT_EQ(s.rollbacks, 0u);
}

TEST(ResilientChannel, DelayedThenDeliveredOriginalCountsOneRetransmit) {
  // Regression: a message that is both delayed and corrupted. The SimWorld
  // flush puts the (corrupted) original ahead of the channel's live resend,
  // so the receiver detects corruption while that resend is still in
  // flight. The channel used to issue — and count — a second retransmit for
  // the same logical loss; the resend_inflight guard must keep it at one.
  comm::SimWorld world(2);
  FaultInjector injector(1);
  FaultSpec delay;
  delay.kind = FaultKind::MsgDelay;
  delay.from = 0;
  delay.to = 1;
  delay.tag = 7;
  injector.add(delay);
  FaultSpec corrupt;
  corrupt.kind = FaultKind::MsgCorrupt;
  corrupt.from = 0;
  corrupt.to = 1;
  corrupt.tag = 7;
  injector.add(corrupt);
  world.set_fault_injector(&injector);

  struct Adapter final : Transport {
    comm::SimWorld& w;
    explicit Adapter(comm::SimWorld& world) : w(world) {}
    void send(int from, int to, int tag, std::vector<Real> payload) override {
      w.send(from, to, tag, std::move(payload));
    }
    std::optional<std::vector<Real>> try_recv(int to, int from,
                                              int tag) override {
      return w.try_recv(to, from, tag);
    }
  } adapter(world);

  ResilientChannel ch(adapter, fast_policy(), true);
  ch.send(0, 1, 7, {1.0, 2.0, 3.0});
  EXPECT_EQ(ch.recv(1, 0, 7, 3), (std::vector<Real>{1.0, 2.0, 3.0}));
  const auto s = ch.stats();
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.retransmits, 1u) << "double-counted retransmit";
  EXPECT_EQ(injector.stats().of(FaultKind::MsgDelay), 1u);
  EXPECT_EQ(injector.stats().of(FaultKind::MsgCorrupt), 1u);
}

TEST_F(ResilientRun, RollbackWithInFlightHaloExchangeStaysBitwise) {
  // A delayed halo message leaves a duplicate envelope in flight when the
  // SDC health check fails at the end of the same window; the rollback must
  // drain that stale envelope from the abandoned timeline (not crash on it,
  // not deliver it into the replay) and still land bitwise on the
  // fault-free trajectory.
  const auto truth = fault_free_run(mesh, kRanks, *tc, params, kSteps);

  FaultInjector inj;
  FaultSpec delay;
  delay.kind = FaultKind::MsgDelay;
  delay.at_event = 29;  // a mid-run halo message (same site as the headline)
  inj.add(delay);
  FaultSpec sdc;
  sdc.kind = FaultKind::StateCorrupt;
  sdc.rank = 1;
  sdc.step = 3;
  inj.add(sdc);
  comm::ResilienceOptions opts;
  opts.injector = &inj;
  opts.checkpoint_interval = 2;
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  d->run(kSteps);

  expect_bitwise_equal(gather_state(*d), truth);
  EXPECT_TRUE(inj.exhausted());
  const auto s = d->resilience_stats();
  EXPECT_EQ(s.rollbacks, 1u);
  EXPECT_EQ(s.steps_replayed, 2u);
  // The delayed original was recovered by one retransmit, and exactly one
  // copy of it was discarded as stale — nothing leaked across the rollback.
  EXPECT_EQ(s.channel.detected_drops, 1u);
  EXPECT_EQ(s.channel.retransmits, 1u);
  EXPECT_EQ(s.channel.stale_discarded, 1u);
}

TEST_F(ResilientRun, RepeatedStateCorruptionEscalatesAfterMaxRollbacks) {
  FaultInjector inj;
  FaultSpec sdc;
  sdc.kind = FaultKind::StateCorrupt;
  sdc.rank = 0;
  sdc.repeat = 100;  // poison every step, forever
  inj.add(sdc);
  comm::ResilienceOptions opts;
  opts.injector = &inj;
  opts.max_rollbacks = 3;
  auto d = make_distributed(mesh, kRanks, *tc, params, &opts);
  try {
    d->run(kSteps);
    FAIL() << "expected rollback escalation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 rollbacks"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mpas::resilience
