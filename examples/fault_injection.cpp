// Fault injection end to end: runs the distributed integrator twice under
// an identical seeded fault schedule — drops, corruption, reordering,
// silent data corruption, a rank stall — once with recovery enabled and
// once fault-free, then proves the recovered run landed bitwise on the
// fault-free trajectory and prints the incident report. Every state field
// (sw::state_fields()) is compared word by word, so a NaN or a divergence
// in U alone fails the run too.
//
// The schedule is expressed in the MPAS_FAULT grammar (see
// src/resilience/fault_env.hpp) and round-trips through it: the campaign is
// rendered to its canonical spec string, re-parsed, and the re-parsed copy
// is what actually runs — so the printed spec is proven equivalent to the
// schedule. Set MPAS_FAULT to replace the built-in schedule entirely:
//
//   MPAS_FAULT="seed=7; drop@5; corrupt@17 word=2; stall rank=2 step=1 ms=5"
//
// Run:  ./fault_injection [level=3] [ranks=4] [steps=10] [seed=42]
//       [probability=0]   (> 0 switches to probabilistic stress mode)
#include <cstdio>
#include <cstring>

#include "comm/distributed.hpp"
#include "mesh/mesh_cache.hpp"
#include "resilience/fault_env.hpp"
#include "sw/state_codec.hpp"
#include "util/config.hpp"
#include "util/env.hpp"

using namespace mpas;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int level = static_cast<int>(cfg.get_int("level", 3));
  const int ranks = static_cast<int>(cfg.get_int("ranks", 4));
  const int steps = static_cast<int>(cfg.get_int("steps", 10));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const Real prob = cfg.get_real("probability", 0);

  const auto mesh = mesh::get_global_mesh(level);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  // The fault schedule, built as an MPAS_FAULT campaign. Counted specs fire
  // at exact event indices, so the whole run — injection, detection,
  // recovery — is reproducible from the spec string alone.
  resilience::FaultCampaign campaign;
  campaign.seed = seed;
  if (const auto spec = env::text("MPAS_FAULT")) {
    campaign = resilience::parse_fault_campaign(*spec);
  } else {
    const auto arm = [&](resilience::FaultKind kind, std::uint64_t at_event) {
      resilience::FaultSpec spec;
      spec.kind = kind;
      if (prob > 0) {
        spec.probability = prob;
      } else {
        spec.at_event = at_event;
      }
      if (kind == resilience::FaultKind::StateCorrupt) {
        spec.rank = 1;
        spec.step = prob > 0 ? -1 : 4;
      }
      if (kind == resilience::FaultKind::RankStall) {
        spec.rank = 2;
        spec.step = prob > 0 ? -1 : 2;
      }
      campaign.faults.push_back(spec);
    };
    arm(resilience::FaultKind::MsgDrop, 7);
    arm(resilience::FaultKind::MsgCorrupt, 23);
    arm(resilience::FaultKind::MsgDelay, 41);
    arm(resilience::FaultKind::StateCorrupt, 0);
    arm(resilience::FaultKind::RankStall, 0);
  }

  // Round-trip proof: canonical rendering -> parse -> canonical rendering
  // is a fixed point, and the re-parsed campaign is the one that runs.
  const std::string spec_text = resilience::to_string(campaign);
  const resilience::FaultCampaign reparsed =
      resilience::parse_fault_campaign(spec_text);
  if (resilience::to_string(reparsed) != spec_text) {
    std::fprintf(stderr, "MPAS_FAULT round-trip failed:\n  %s\n  %s\n",
                 spec_text.c_str(), resilience::to_string(reparsed).c_str());
    return 2;
  }
  resilience::FaultInjector injector(reparsed.seed);
  resilience::arm_campaign(injector, reparsed);

  std::printf("mesh %s (%d cells), %d ranks, %d steps, %s faults\n",
              mesh->resolution_label().c_str(), mesh->num_cells, ranks, steps,
              prob > 0 ? "probabilistic" : "counted");
  std::printf("MPAS_FAULT=\"%s\"\n\n", spec_text.c_str());

  // Fault-free reference. The SimWorld attaches the ambient MPAS_FAULT
  // campaign automatically, so the reference explicitly opts back out.
  comm::DistributedSw clean(*mesh, ranks, params);
  clean.set_fault_injector(nullptr);
  clean.apply_test_case(*tc);
  clean.initialize();
  clean.run(steps);

  // Faulty run with the full resilience stack. Recovery is bounded, so an
  // aggressive probabilistic schedule can legitimately exhaust it — report
  // the escalation instead of letting the exception abort the demo.
  comm::ResilienceOptions opts;
  opts.injector = &injector;
  opts.checkpoint_interval = 3;
  comm::DistributedSw faulty(*mesh, ranks, params);
  faulty.enable_resilience(opts);
  faulty.apply_test_case(*tc);
  faulty.initialize();
  try {
    faulty.run(steps);
  } catch (const Error& e) {
    std::printf("unrecoverable fault, run escalated:\n  %s\n%s\n", e.what(),
                faulty.resilience_stats().to_string().c_str());
    return 2;
  }

  std::printf("%s\n", faulty.resilience_stats().to_string().c_str());

  std::size_t diverged = 0;
  for (const sw::FieldId field : sw::state_fields()) {
    const auto got = faulty.gather_global(field);
    const auto want = clean.gather_global(field);
    std::size_t words = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
      if (std::memcmp(&got[i], &want[i], sizeof(Real)) != 0) ++words;
    std::printf("%-8s %zu of %zu words differ from the fault-free run\n",
                sw::field_info(field).name, words, got.size());
    diverged += words;
  }
  std::printf("recovered state: %s\n",
              diverged == 0 ? "bitwise identical" : "** DIVERGED **");
  return diverged == 0 ? 0 : 1;
}
