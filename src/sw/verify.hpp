// The declared-vs-actual verifier for the shallow-water data-flow graphs:
// the runtime half of src/analysis (the static half is
// analysis/graph_check.hpp).
//
//   * verify_pattern_access — replays every pattern body once, serially, on
//     scrambled field data with a FieldAccessTracker attached, and reports
//     any field the body touches or mutates outside its declared
//     input/output sets. A mis-declared set silently corrupts the derived
//     dependency edges — and therefore every hybrid schedule — so this is
//     the contract check that makes the graph trustworthy.
//   * verify_schedule_races — feeds the level-synchronous node-parallel
//     execution order (level barriers + halo syncs, the ordering the
//     executor actually enforces) through the vector-clock RaceDetector
//     with the declared access sets.
//   * verify_sw_graphs — graph-level static checks + both of the above for
//     all three RK graphs.
//
// SwModel runs verify_sw_graphs at construction when MPAS_VERIFY=1 is set
// in the environment and refuses to start on any error-severity finding.
#pragma once

#include "analysis/graph_check.hpp"
#include "sw/model.hpp"

namespace mpas::sw {

/// Replay each node body of `graph` once over its iteration range (see
/// extent_end) and validate the observed accesses against the declared
/// sets. Field contents and the RK coefficients of `ctx` are saved and
/// restored; the replay itself runs on deterministic scrambled data so
/// writes are detectable by value diff. Codes: "undeclared-write" (error),
/// "undeclared-access" (error), "untouched-input" / "untouched-output"
/// (warnings), "no-body" (info).
analysis::Report verify_pattern_access(
    const core::DataflowGraph& graph, SwContext& ctx,
    const partition::LocalMesh* local_mesh = nullptr);

/// Model the node-parallel executor's enforced ordering (per-level
/// barriers, halo-exchange tasks) through the happens-before race detector
/// using the declared access sets. Publishes check/violation counts to the
/// global MetricsRegistry.
analysis::Report verify_schedule_races(const core::DataflowGraph& graph);

struct VerifyOptions {
  analysis::CheckOptions graph;        // static-check options (halo budget)
  bool check_access_sets = true;       // requires graphs built with a ctx
  bool check_schedule_races = true;
};

/// Run every checker over the three RK graphs. `ctx` may be null, which
/// skips the access replay (structure-only graphs carry no bodies);
/// `local_mesh` bounds the replay as in verify_pattern_access.
analysis::Report verify_sw_graphs(const SwGraphs& graphs, SwContext* ctx,
                                  const VerifyOptions& options = {},
                                  const partition::LocalMesh* local_mesh = {});

/// True when the MPAS_VERIFY environment variable is "1" (any other value,
/// or unset, disables verification).
bool verify_mode_enabled();

}  // namespace mpas::sw
