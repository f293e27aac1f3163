// Chaos soak driver: sweeps seeded fault campaigns against the
// self-healing runtime and fails loudly unless every run detects its
// fault, heals, and converges bitwise to the fault-free solution. This is
// the binary behind the CI `chaos-soak` job.
//
// Run:  ./chaos_soak [scenario=device-death|gray-failure|
//                     transfer-corruption|rank-stall|all]
//                    [seeds=1,2,3] [steps=0] [level=4] [trace=...]
//
// `seeds` is a comma-separated list; `steps=0` uses each scenario's own
// default arc length. With MPAS_TRACE (or trace=) set, the whole soak is
// recorded as one Chrome trace — quarantine/probe/replan instants and the
// resilience.health.* counters land in the export, which CI smoke-checks.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "resilience/health/chaos.hpp"
#include "util/config.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

using namespace mpas;
using resilience::health::ChaosOptions;
using resilience::health::ChaosReport;
using resilience::health::ChaosScenario;

namespace {

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) seeds.push_back(std::stoull(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) throw Error("seeds= must name at least one seed");
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::string scenario_arg = cfg.get_string("scenario", "all");
  const auto seeds = parse_seeds(cfg.get_string("seeds", "1,2,3"));

  std::vector<ChaosScenario> scenarios;
  if (scenario_arg == "all") {
    scenarios = {ChaosScenario::DeviceDeath, ChaosScenario::GrayFailure,
                 ChaosScenario::TransferCorruptionBurst,
                 ChaosScenario::RankStall};
  } else {
    scenarios = {resilience::health::parse_scenario(scenario_arg)};
  }

  const std::string trace_path =
      env::text("MPAS_TRACE").value_or(cfg.get_string("trace", ""));
  if (!trace_path.empty()) obs::start_trace_file(trace_path);

  int failures = 0;
  int runs = 0;
  for (const ChaosScenario scenario : scenarios) {
    for (const std::uint64_t seed : seeds) {
      ChaosOptions options;
      options.scenario = scenario;
      options.seed = seed;
      options.steps = static_cast<int>(cfg.get_int("steps", 0));
      options.mesh_level = static_cast<int>(cfg.get_int("level", 4));
      const ChaosReport report = resilience::health::run_chaos(options);
      ++runs;
      const bool ok = report.passed();
      if (!ok) ++failures;
      std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", report.summary.c_str());
    }
  }

  std::printf("\nchaos soak: %d/%d campaigns passed\n", runs - failures, runs);
  if (!trace_path.empty()) std::printf("trace written to %s\n",
                                       trace_path.c_str());
  return failures == 0 ? 0 : 1;
}
