// ChaosCampaign: randomized-but-seeded fault schedules driven against the
// self-healing runtime, asserting the headline property end to end — the
// run detects the fault, heals (replan / quarantine / shrink), and still
// converges bitwise to the fault-free solution. Each scenario derives its
// fault placement (which step, which rank, how severe) from the seed with
// splitmix64, so one integer reproduces the whole campaign, and CI can
// sweep seeds cheaply.
//
// Scenarios:
//   DeviceDeath            the offload link fails hard mid-run; the
//                          accelerator is quarantined and the model
//                          continues on the validated host-only plan.
//   GrayFailure            the accelerator silently slows down; its step
//                          time passes slow_factor x the baseline frozen
//                          at the plan's first clean step, the split is
//                          re-derived, and probation eventually
//                          re-admits the device.
//   TransferCorruptionBurst a burst of corrupted DMA transfers is retried
//                          within budget; the retry spike alone must raise
//                          suspicion without harming the solution.
//   RankStall              a distributed rank goes slow; it is quarantined
//                          and the world shrinks onto the survivors,
//                          continuing bitwise-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "resilience/health/monitor.hpp"

namespace mpas::resilience::health {

enum class ChaosScenario {
  DeviceDeath,
  GrayFailure,
  TransferCorruptionBurst,
  RankStall,
};

const char* to_string(ChaosScenario scenario);
/// Parse "device-death" / "gray-failure" / "transfer-corruption" /
/// "rank-stall" (throws mpas::Error on anything else).
ChaosScenario parse_scenario(const std::string& text);

struct ChaosOptions {
  ChaosScenario scenario = ChaosScenario::DeviceDeath;
  std::uint64_t seed = 1;
  /// 0 = the scenario's own default (long enough for its full arc).
  int steps = 0;
  /// Smallest mesh where the pattern-level split actually offloads work
  /// (below ~2.5k cells the planner keeps everything on the host and the
  /// device scenarios would have nothing to kill).
  int mesh_level = 4;
  int test_case = 2;
  int ranks = 4;  // RankStall only
  core::SimOptions sim{machine::paper_platform()};
};

struct ChaosReport {
  ChaosScenario scenario{};
  std::uint64_t seed = 0;
  bool bitwise_identical = false;  // vs the fault-free reference run
  bool detected = false;           // the monitor transitioned at all
  bool quarantined = false;
  bool recovered = false;          // probation re-admitted the entity
  int replans = 0;                 // hybrid scenarios
  int final_ranks = 0;             // RankStall: world size after healing
  std::vector<Transition> transitions;
  std::string summary;             // one line for logs / CI output

  /// The campaign's pass criterion: bitwise convergence plus the
  /// scenario-appropriate detection (hard faults must quarantine; soft
  /// faults must at least be noticed).
  [[nodiscard]] bool passed() const;
};

/// Run one seeded scenario: a fault-free reference run, then the faulty
/// run, then the bitwise comparison. Deterministic per (scenario, seed).
ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace mpas::resilience::health
