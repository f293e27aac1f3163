// Verify the shipped Algorithm-1 data-flow graphs: graph-level static
// checks (structure, dependency edges, halo-depth budget) and the
// access-set replay of every pattern body on a small mesh.
//
// Exit code is the number of error-severity findings, so CI can gate on
// it directly (0 = the declared world matches the actual world).
//
// Run:  ./verify_dataflow [diffusion=false] [tracer=false] [level=2]
//                         [halo_layers=2] [verbose=false]
#include <cstdio>

#include "mesh/mesh_cache.hpp"
#include "sw/model.hpp"
#include "sw/verify.hpp"
#include "util/config.hpp"

using namespace mpas;

namespace {

void print_report(const analysis::Report& report, bool verbose) {
  for (const auto& d : report.diagnostics()) {
    if (!verbose && d.severity == analysis::Severity::Info) continue;
    std::printf("  %-7s [%s] %s\n", analysis::to_string(d.severity),
                d.code.c_str(), d.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const bool diffusion = cfg.get_bool("diffusion", false);
  const bool tracer = cfg.get_bool("tracer", false);
  const int level = static_cast<int>(cfg.get_int("level", 2));
  const bool verbose = cfg.get_bool("verbose", false);

  analysis::CheckOptions options;
  options.halo_layers = static_cast<int>(cfg.get_int("halo_layers", 2));

  // A small mesh is enough: the access replay checks which fields a body
  // touches, not what it computes, and every stencil shape exists at any
  // subdivision level.
  const auto mesh = mesh::get_global_mesh(level);
  sw::FieldStore fields(*mesh);
  sw::SwParams params;
  params.dt = 1.0;
  if (diffusion) {
    params.nu_del2_u = 1.0e-4;
    params.nu_del2_h = 1.0e-4;
  }
  params.with_tracer = tracer;
  sw::SwContext ctx{*mesh, fields, params};
  const sw::SwGraphs graphs = sw::build_sw_graphs(&ctx, diffusion, tracer);

  std::printf("verifying RK4 data-flow graphs (diffusion=%d tracer=%d, "
              "%d cells, halo_layers=%d)\n",
              diffusion ? 1 : 0, tracer ? 1 : 0, mesh->num_cells,
              options.halo_layers);

  const analysis::Report report =
      sw::verify_sw_graphs(graphs, &ctx, options);

  const core::DataflowGraph* all[] = {&graphs.setup, &graphs.early,
                                      &graphs.final};
  for (const core::DataflowGraph* g : all)
    std::printf("  graph '%s': %d nodes, %zu levels\n", g->name().c_str(),
                g->num_nodes(), g->independent_sets().size());

  print_report(report, verbose);
  std::printf("%d error(s), %d warning(s), %zu finding(s) total\n",
              report.errors(), report.warnings(),
              report.diagnostics().size());
  if (report.clean())
    std::printf("OK: declared access sets, dependency edges and halo syncs "
                "are consistent\n");
  return report.errors();
}
