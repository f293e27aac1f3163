#include "sw/verify.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace mpas::sw {

namespace {

bool declared(const std::vector<std::string>& set, const std::string& name) {
  for (const std::string& s : set)
    if (s == name) return true;
  return false;
}

/// Deterministic scramble values in [1, 2): positive (thickness-like
/// fields must stay away from zero — several kernels divide by them) and
/// different per field and entity, so a copy kernel's writes always change
/// the destination and are detectable by diff.
Real scramble_value(int field, std::size_t i) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) +
                                             0x100000001b3ULL * (field + 1));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return 1.0 + static_cast<Real>(x % 0x100000ULL) / 0x100000ULL;
}

}  // namespace

analysis::Report verify_pattern_access(const core::DataflowGraph& graph,
                                       SwContext& ctx,
                                       const partition::LocalMesh* local_mesh) {
  analysis::Report report;
  FieldStore& fs = ctx.fields;

  // Save everything the replay clobbers.
  std::vector<std::vector<Real>> saved(kNumFields);
  for (int f = 0; f < kNumFields; ++f) {
    const auto span = fs.get(static_cast<FieldId>(f));
    saved[f].assign(span.begin(), span.end());
  }
  const Real saved_substep = ctx.rk_substep_coeff;
  const Real saved_accum = ctx.rk_accum_coeff;
  ctx.rk_substep_coeff = 0.375;  // nonzero so update kernels visibly write
  ctx.rk_accum_coeff = 0.625;

  for (int f = 0; f < kNumFields; ++f) {
    auto span = fs.get(static_cast<FieldId>(f));
    for (std::size_t i = 0; i < span.size(); ++i)
      span[i] = scramble_value(f, i);
  }

  FieldAccessTracker tracker;
  std::vector<std::vector<Real>> pre(kNumFields);
  for (int id : graph.topological_order()) {
    const core::PatternNode& node = graph.node(id);
    if (!node.body) {
      report.add({analysis::Severity::Info, "no-body", id, -1, "",
                  node.label + " has no functional body; access set taken "
                               "on trust"});
      continue;
    }
    for (int f = 0; f < kNumFields; ++f) {
      const auto span = fs.get(static_cast<FieldId>(f));
      pre[f].assign(span.begin(), span.end());
    }

    tracker.clear();
    fs.set_tracker(&tracker);
    // A rank mesh's ghost entities have off-rank neighbours; replay only
    // the prefix the executor runs.
    node.body({0, extent_end(node, fs, local_mesh),
               core::VariantChoice::BranchFree});
    fs.set_tracker(nullptr);

    for (int f = 0; f < kNumFields; ++f) {
      const FieldId fid = static_cast<FieldId>(f);
      const std::string name = field_info(fid).name;
      const auto span = fs.get(fid);
      bool changed = false;
      for (std::size_t i = 0; i < span.size() && !changed; ++i)
        changed = span[i] != pre[f][i];

      if (changed) tracker.writes.set(static_cast<std::size_t>(f));
      if (tracker.touched.test(static_cast<std::size_t>(f)) && !changed)
        tracker.reads.set(static_cast<std::size_t>(f));

      const bool in = declared(node.inputs, name);
      const bool out = declared(node.outputs, name);
      if (changed && !out) {
        report.add({analysis::Severity::Error, "undeclared-write", id, -1,
                    name,
                    node.label + " mutated '" + name +
                        "' which is not in its declared outputs — derived "
                        "dependency edges are wrong"});
      } else if (tracker.touched.test(static_cast<std::size_t>(f)) && !in &&
                 !out) {
        report.add({analysis::Severity::Error, "undeclared-access", id, -1,
                    name,
                    node.label + " accessed '" + name +
                        "' which is in neither its declared inputs nor "
                        "outputs"});
      }
      if (out && !tracker.touched.test(static_cast<std::size_t>(f)))
        report.add({analysis::Severity::Warning, "untouched-output", id, -1,
                    name,
                    node.label + " declares output '" + name +
                        "' but never accessed it"});
      if (in && !tracker.touched.test(static_cast<std::size_t>(f)))
        report.add({analysis::Severity::Warning, "untouched-input", id, -1,
                    name,
                    node.label + " declares input '" + name +
                        "' but never accessed it"});
    }
  }

  for (int f = 0; f < kNumFields; ++f) {
    auto span = fs.get(static_cast<FieldId>(f));
    std::copy(saved[f].begin(), saved[f].end(), span.begin());
  }
  ctx.rk_substep_coeff = saved_substep;
  ctx.rk_accum_coeff = saved_accum;
  return report;
}

analysis::Report verify_sw_graphs(const SwGraphs& graphs, SwContext* ctx,
                                  const analysis::CheckOptions& options,
                                  const partition::LocalMesh* local_mesh) {
  analysis::Report report;
  const core::DataflowGraph* all[] = {&graphs.setup, &graphs.early,
                                      &graphs.final};
  for (const core::DataflowGraph* graph : all) {
    analysis::Report local = analysis::verify_graph(*graph, options);
    if (ctx != nullptr)
      local.merge(verify_pattern_access(*graph, *ctx, local_mesh));
    for (analysis::Diagnostic d : local.diagnostics()) {
      d.message = "[" + graph->name() + "] " + d.message;
      report.add(std::move(d));
    }
  }
  return report;
}

}  // namespace mpas::sw
