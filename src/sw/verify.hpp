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
//   * verify_sw_graphs — the graph-level static checks (structure,
//     dependency edges, halo depth) and the access replay for all three RK
//     graphs. SwModel runs nodes in program order, so the dependency-edge
//     check is the whole hazard contract: a schedule that follows the
//     edges cannot race.
//
// SwModel runs verify_sw_graphs at construction when the MPAS_VERIFY flag
// is on (util/env.hpp) and refuses to start on any error-severity finding.
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

/// Run every checker over the three RK graphs. `options` sets the static
/// checks (the halo budget); `ctx` may be null, which skips the access
/// replay (structure-only graphs carry no bodies); `local_mesh` bounds the
/// replay as in verify_pattern_access.
analysis::Report verify_sw_graphs(const SwGraphs& graphs, SwContext* ctx,
                                  const analysis::CheckOptions& options = {},
                                  const partition::LocalMesh* local_mesh = {});

}  // namespace mpas::sw
