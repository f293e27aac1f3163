#include "comm/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "resilience/channel.hpp"
#include "resilience/checkpoint.hpp"
#include "util/error.hpp"

namespace mpas::comm {

using sw::FieldId;

namespace {

/// SimWorld as a resilience transport (the channel keeps no comm
/// dependency; this adapter is the only glue).
class SimWorldTransport final : public resilience::Transport {
 public:
  explicit SimWorldTransport(SimWorld& world) : world_(world) {}
  void send(int from, int to, int tag, std::vector<Real> payload) override {
    world_.send(from, to, tag, std::move(payload));
  }
  std::optional<std::vector<Real>> try_recv(int to, int from,
                                            int tag) override {
    return world_.try_recv(to, from, tag);
  }

 private:
  SimWorld& world_;
};

/// Rank-pool workers: one participant per rank (the caller is one), capped
/// at the cores. A rank never blocks inside a region, so a participant
/// beyond the cores could only be preempted (DESIGN.md §7).
int rank_pool_workers(int num_ranks) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(num_ranks, cores) - 1;
}

void flip_state_bit(std::span<Real> data, std::uint64_t word,
                    std::uint32_t bit) {
  if (data.empty()) return;
  Real& target = data[word % data.size()];
  std::uint64_t raw;
  std::memcpy(&raw, &target, sizeof(raw));
  raw ^= std::uint64_t{1} << bit;
  std::memcpy(&target, &raw, sizeof(raw));
}

}  // namespace

/// The per-integrator resilience engine: the sequenced channel over the
/// message fabric, the rolling checkpoint, the health-check baseline, and
/// the incident counters reported through ResilienceStats.
struct DistributedSw::Resilience {
  ResilienceOptions options;
  SimWorldTransport transport;
  resilience::ResilientChannel channel;
  resilience::Checkpoint checkpoint;

  bool baseline_set = false;
  Real baseline_mass = 0;
  Real baseline_energy = 0;

  std::uint64_t health_checks = 0;
  std::uint64_t poisoned_detected = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t steps_replayed = 0;
  std::uint64_t stalls = 0;
  Real modeled_seconds_lost = 0;

  // Channel totals from before the last shrink_to (the channel itself is
  // rebuilt with the fabric, but the run's counters must not reset).
  resilience::ChannelStats carried;

  Resilience(SimWorld& world, const ResilienceOptions& opts)
      : options(opts),
        transport(world),
        channel(transport, opts.retry, opts.recover) {}
};

namespace {

resilience::ChannelStats add_stats(const resilience::ChannelStats& a,
                                   const resilience::ChannelStats& b) {
  resilience::ChannelStats s;
  s.sent = a.sent + b.sent;
  s.delivered = a.delivered + b.delivered;
  s.detected_drops = a.detected_drops + b.detected_drops;
  s.detected_corruptions = a.detected_corruptions + b.detected_corruptions;
  s.stale_discarded = a.stale_discarded + b.stale_discarded;
  s.retransmits = a.retransmits + b.retransmits;
  s.modeled_seconds_lost = a.modeled_seconds_lost + b.modeled_seconds_lost;
  return s;
}

}  // namespace

DistributedSw::DistributedSw(const mesh::VoronoiMesh& global_mesh,
                             int num_ranks, sw::SwParams params,
                             sw::LoopVariant variant, int halo_layers)
    : global_(global_mesh),
      params_(params),
      variant_(variant),
      halo_layers_(halo_layers),
      part_(partition::partition_cells_rcb(global_mesh, num_ranks)),
      world_(std::make_unique<SimWorld>(num_ranks)),
      pool_(std::make_unique<exec::ThreadPool>(
          rank_pool_workers(num_ranks))) {
  // The irregular (scatter) variants traverse whole arrays, including ghost
  // entities with off-rank neighbours — they are not partition-safe. This
  // mirrors the paper: the original loops had to be refactored before any
  // decomposition of the iteration space.
  MPAS_CHECK_MSG(variant_ != sw::LoopVariant::Irregular,
                 "irregular loop variants cannot run on partitioned meshes");
  locals_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r)
    locals_.push_back(
        partition::build_local_mesh(global_mesh, part_, r, halo_layers));
  plans_ = partition::build_exchange_plans(global_mesh, part_, locals_);
  for (int r = 0; r < num_ranks; ++r)
    stores_.push_back(std::make_unique<sw::FieldStore>(
        locals_[static_cast<std::size_t>(r)].mesh));
}

DistributedSw::~DistributedSw() = default;  // Resilience is complete here

void DistributedSw::apply_test_case(const sw::TestCase& tc) {
  // Initial conditions are analytic, so every rank fills *all* local
  // entities (halo included) directly — the values match the owners'
  // bitwise because they come from the same lon/lat formulas.
  for (int r = 0; r < num_ranks(); ++r)
    sw::apply_initial_conditions(tc, locals_[static_cast<std::size_t>(r)].mesh,
                                 *stores_[static_cast<std::size_t>(r)]);
}

void DistributedSw::for_each_rank(const std::function<void(int)>& body) {
  // Static slabs: each participant owns a fixed, contiguous set of ranks.
  pool_->parallel_for(num_ranks(), [&](Index begin, Index end) {
    for (Index r = begin; r < end; ++r) body(static_cast<int>(r));
  });
}

void DistributedSw::exchange(FieldId field) {
  const MeshLocation loc = sw::field_info(field).location;
  const int tag = static_cast<int>(field);
  auto& rec = obs::TraceRecorder::global();
  obs::TraceSpan span(
      rec, rec.enabled()
               ? std::string("halo:") + sw::field_info(field).name
               : std::string());
  // Phase 1: post every send.
  for (int r = 0; r < num_ranks(); ++r) {
    const auto& plan = plans_[static_cast<std::size_t>(r)];
    const auto data = stores_[static_cast<std::size_t>(r)]->get(field);
    for (const auto& peer : plan.peers) {
      const auto& send =
          loc == MeshLocation::Cell ? peer.send_cells : peer.send_edges;
      if (send.empty()) continue;
      std::vector<Real> buf;
      buf.reserve(send.size());
      for (Index i : send) buf.push_back(data[static_cast<std::size_t>(i)]);
      if (resilience_)
        resilience_->channel.send(r, peer.rank, tag, std::move(buf));
      else
        world_->send(r, peer.rank, tag, std::move(buf));
    }
  }
  // Phase 2: drain every receive.
  for (int r = 0; r < num_ranks(); ++r) {
    const auto& plan = plans_[static_cast<std::size_t>(r)];
    auto data = stores_[static_cast<std::size_t>(r)]->get(field);
    for (const auto& peer : plan.peers) {
      const auto& recv =
          loc == MeshLocation::Cell ? peer.recv_cells : peer.recv_edges;
      if (recv.empty()) continue;
      const std::vector<Real> buf =
          resilience_
              ? resilience_->channel.recv(r, peer.rank, tag, recv.size())
              : world_->recv(r, peer.rank, tag);
      MPAS_CHECK(buf.size() == recv.size());
      for (std::size_t i = 0; i < recv.size(); ++i)
        data[static_cast<std::size_t>(recv[i])] = buf[i];
    }
  }
  if (resilience_) {
    // Late duplicates from retransmissions may legitimately linger; only
    // live messages left behind are a protocol bug.
    drain_stale_messages();
  } else {
    MPAS_CHECK_MSG(!world_->has_pending(), "unmatched halo messages");
  }
}

void DistributedSw::compute_diagnostics(int rank, FieldId h_in, FieldId u_in) {
  const auto& lm = locals_[static_cast<std::size_t>(rank)];
  sw::SwContext ctx{lm.mesh, *stores_[static_cast<std::size_t>(rank)],
                    params_, 0, 0};
  sw::diag_h_edge(ctx, h_in, 0, lm.num_compute_edges);
  sw::diag_ke(ctx, u_in, 0, lm.num_compute_cells, variant_);
  sw::diag_vorticity(ctx, u_in, 0, lm.num_compute_vertices, variant_);
  sw::diag_divergence(ctx, u_in, 0, lm.num_compute_cells, variant_);
  sw::diag_v_tangent(ctx, u_in, 0, lm.num_inner_edges);
  sw::diag_h_pv_vertex(ctx, h_in, 0, lm.num_compute_vertices);
  sw::diag_pv_cell(ctx, 0, lm.num_compute_cells);
  sw::diag_pv_edge(ctx, u_in, 0, lm.num_inner_edges);
  if (params_.with_tracer) {
    const FieldId q_in = h_in == FieldId::H ? FieldId::TracerQ
                                            : FieldId::TracerQProvis;
    sw::tracer_ratio(ctx, q_in, h_in, 0, lm.num_compute_cells);
    sw::tracer_edge_value(ctx, 0, lm.num_compute_edges);
  }
}

void DistributedSw::compute_tend(int rank, FieldId h_in, FieldId u_in) {
  const auto& lm = locals_[static_cast<std::size_t>(rank)];
  sw::SwContext ctx{lm.mesh, *stores_[static_cast<std::size_t>(rank)],
                    params_, 0, 0};
  sw::tend_thickness(ctx, u_in, 0, lm.num_owned_cells, variant_);
  sw::tend_momentum(ctx, h_in, u_in, 0, lm.num_owned_edges);
  if (params_.nu_del2_h != 0) {
    sw::tend_h_laplacian(ctx, h_in, 0, lm.num_owned_cells);
    sw::tend_h_add_del2(ctx, 0, lm.num_owned_cells);
  }
  if (params_.nu_del2_u != 0)
    sw::tend_u_add_del2(ctx, 0, lm.num_owned_edges);
  if (params_.with_tracer)
    sw::tend_tracer(ctx, u_in, 0, lm.num_owned_cells, variant_);
  sw::enforce_boundary_edge(ctx, 0, lm.num_owned_edges);
}

void DistributedSw::reconstruct(int rank) {
  const auto& lm = locals_[static_cast<std::size_t>(rank)];
  sw::SwContext ctx{lm.mesh, *stores_[static_cast<std::size_t>(rank)],
                    params_, 0, 0};
  sw::reconstruct_vector(ctx, FieldId::U, 0, lm.num_owned_cells, variant_);
  sw::reconstruct_horizontal(ctx, 0, lm.num_owned_cells);
}

void DistributedSw::initialize() {
  for_each_rank(
      [&](int r) { compute_diagnostics(r, FieldId::H, FieldId::U); });
  exchange(FieldId::PvEdge);
  for_each_rank([&](int r) { reconstruct(r); });
}

void DistributedSw::step() {
  MPAS_TRACE_SCOPE("distributed:step");
  const Real dt = params_.dt;
  static constexpr Real kA[3] = {0.5, 0.5, 1.0};
  static constexpr Real kB[4] = {1.0 / 6, 1.0 / 3, 1.0 / 3, 1.0 / 6};

  for (int stage = 0; stage < 4; ++stage) {
    const bool last = stage == 3;
    // Every rank's work up to the stage's first halo sync.
    for_each_rank([&](int r) {
      const auto& lm = locals_[static_cast<std::size_t>(r)];
      sw::FieldStore& store = *stores_[static_cast<std::size_t>(r)];
      if (stage == 0) {
        // Step setup: seed provis and accumulators on all local entities so
        // the halo copies of provis start coherent (H/U halos are coherent
        // from the previous step's exchange).
        sw::SwContext ctx{lm.mesh, store, params_, 0, 0};
        sw::seed_provis_h(ctx, 0, lm.mesh.num_cells);
        sw::seed_provis_u(ctx, 0, lm.mesh.num_edges);
        sw::init_accum_h(ctx, 0, lm.num_owned_cells);
        sw::init_accum_u(ctx, 0, lm.num_owned_edges);
        if (params_.with_tracer) {
          sw::seed_provis_tracer(ctx, 0, lm.mesh.num_cells);
          sw::init_accum_tracer(ctx, 0, lm.num_owned_cells);
        }
      }
      compute_tend(r, FieldId::HProvis, FieldId::UProvis);
      if (!last) {
        sw::SwContext ctx{lm.mesh, store, params_, kA[stage] * dt,
                          kB[stage] * dt};
        sw::next_substep_h(ctx, 0, lm.num_owned_cells);
        sw::next_substep_u(ctx, 0, lm.num_owned_edges);
        sw::accumulate_h(ctx, 0, lm.num_owned_cells);
        sw::accumulate_u(ctx, 0, lm.num_owned_edges);
        if (params_.with_tracer) {
          sw::next_substep_tracer(ctx, 0, lm.num_owned_cells);
          sw::accumulate_tracer(ctx, 0, lm.num_owned_cells);
        }
      } else {
        sw::SwContext ctx{lm.mesh, store, params_, 0, kB[stage] * dt};
        sw::accumulate_h(ctx, 0, lm.num_owned_cells);
        sw::accumulate_u(ctx, 0, lm.num_owned_edges);
        sw::commit_h(ctx, 0, lm.num_owned_cells);
        sw::commit_u(ctx, 0, lm.num_owned_edges);
        if (params_.with_tracer) {
          sw::accumulate_tracer(ctx, 0, lm.num_owned_cells);
          sw::commit_tracer(ctx, 0, lm.num_owned_cells);
        }
      }
    });
    // First halo sync (the provisional state, or the committed state after
    // the last stage), the diagnostics on it, then the second sync (APVM
    // stencil).
    const FieldId h = last ? FieldId::H : FieldId::HProvis;
    const FieldId u = last ? FieldId::U : FieldId::UProvis;
    exchange(h);
    exchange(u);
    if (params_.with_tracer)
      exchange(last ? FieldId::TracerQ : FieldId::TracerQProvis);
    for_each_rank([&](int r) { compute_diagnostics(r, h, u); });
    exchange(FieldId::PvEdge);
  }
  for_each_rank([&](int r) { reconstruct(r); });
}

void DistributedSw::run(int steps) {
  if (resilience_) {
    run_resilient(steps);
    return;
  }
  for (int i = 0; i < steps; ++i) step();
  step_index_ += steps;
}

void DistributedSw::enable_resilience(const ResilienceOptions& options) {
  MPAS_CHECK_MSG(!resilience_, "resilience already enabled");
  MPAS_CHECK_MSG(!world_->has_pending(),
                 "enable_resilience with halo traffic in flight");
  MPAS_CHECK_MSG(options.checkpoint_interval >= 1,
                 "checkpoint_interval must be >= 1, got "
                     << options.checkpoint_interval);
  MPAS_CHECK_MSG(options.max_rollbacks >= 1, "max_rollbacks must be >= 1");
  resilience_ = std::make_unique<Resilience>(*world_, options);
  world_->set_fault_injector(options.injector);
}

void DistributedSw::run_resilient(int steps) {
  Resilience& rs = *resilience_;
  if (!rs.baseline_set) {
    // Conserved-integral baseline for the drift detector, taken on the
    // initial (trusted) state.
    const sw::StateHealth health = state_health();
    MPAS_CHECK_MSG(health.finite && health.h_min > 0,
                   "initial state is already unhealthy");
    rs.baseline_mass = health.mass;
    rs.baseline_energy = health.energy;
    rs.baseline_set = true;
  }

  const std::int64_t target = step_index_ + steps;
  int rollbacks_in_row = 0;
  while (step_index_ < target) {
    // `rs` dangles after a shrink (the Resilience engine is rebuilt over
    // the new fabric), so the loop body goes through resilience_ directly.
    if (!resilience_->checkpoint.valid() ||
        (step_index_ % resilience_->options.checkpoint_interval == 0 &&
         resilience_->checkpoint.step() != step_index_))
      take_checkpoint();
    stall_scratch_.assign(static_cast<std::size_t>(num_ranks()), 0.0);
    step();
    apply_step_faults(step_index_);
    step_index_ += 1;
    std::string reason;
    if (state_healthy(&reason)) {
      rollbacks_in_row = 0;
      if (health_ != nullptr) {
        feed_health(step_index_ - 1);
        shrink_quarantined_ranks();
      }
      continue;
    }
    resilience_->poisoned_detected += 1;
    MPAS_TRACE_INSTANT_ARGS(
        "resilience:poisoned_state",
        obs::trace_arg("step", static_cast<std::int64_t>(step_index_ - 1)) +
            "," + obs::trace_arg("reason", reason));
    MPAS_CHECK_MSG(resilience_->options.recover,
                   "state poisoned after step " << (step_index_ - 1) << ": "
                                                << reason
                                                << " (recovery disabled)");
    rollbacks_in_row += 1;
    MPAS_CHECK_MSG(rollbacks_in_row <= resilience_->options.max_rollbacks,
                   "state still poisoned after "
                       << resilience_->options.max_rollbacks
                       << " rollbacks: " << reason);
    rollback();
  }
  // Publish the run's resilience aggregate so a metrics dump after any
  // resilient run includes it without the caller doing anything.
  resilience_stats().export_metrics(obs::MetricsRegistry::global());
}

void DistributedSw::take_checkpoint() {
  Resilience& rs = *resilience_;
  rs.checkpoint.begin(step_index_);
  for (int r = 0; r < num_ranks(); ++r) {
    const sw::FieldStore& store = *stores_[static_cast<std::size_t>(r)];
    for (int f = 0; f < sw::kNumFields; ++f)
      rs.checkpoint.save(r, f, store.get(static_cast<FieldId>(f)));
  }
  rs.checkpoint.commit();
}

void DistributedSw::rollback() {
  Resilience& rs = *resilience_;
  MPAS_CHECK_MSG(rs.checkpoint.valid(), "rollback without a checkpoint");
  MPAS_TRACE_INSTANT_ARGS(
      "resilience:rollback",
      obs::trace_arg("from_step", static_cast<std::int64_t>(step_index_)) +
          "," +
          obs::trace_arg("to_step",
                         static_cast<std::int64_t>(rs.checkpoint.step())));
  for (int r = 0; r < num_ranks(); ++r) {
    sw::FieldStore& store = *stores_[static_cast<std::size_t>(r)];
    for (int f = 0; f < sw::kNumFields; ++f)
      rs.checkpoint.restore(r, f, store.get(static_cast<FieldId>(f)));
  }
  rs.rollbacks += 1;
  rs.steps_replayed +=
      static_cast<std::uint64_t>(step_index_ - rs.checkpoint.step());
  step_index_ = rs.checkpoint.step();
  // Halo traffic still in flight belongs to the abandoned timeline: every
  // envelope queued now is a retransmission duplicate whose sequence the
  // receivers already consumed (the step's exchanges all completed before
  // the health check could fail). Discard them so the replay starts from
  // quiescence — a *live* envelope here would be a protocol bug, and
  // drain_stale throws on one rather than dropping it.
  drain_stale_messages();
}

void DistributedSw::apply_step_faults(std::int64_t step) {
  Resilience& rs = *resilience_;
  if (rs.options.injector == nullptr) return;
  for (int r = 0; r < num_ranks(); ++r) {
    for (const auto& fault : rs.options.injector->on_step(r, step)) {
      if (fault.kind == resilience::FaultKind::RankStall) {
        rs.stalls += 1;
        rs.modeled_seconds_lost += fault.stall_seconds;
        if (static_cast<std::size_t>(r) < stall_scratch_.size())
          stall_scratch_[static_cast<std::size_t>(r)] += fault.stall_seconds;
      } else if (fault.kind == resilience::FaultKind::StateCorrupt) {
        // Silent data corruption in resident state. `tag` selects the
        // field (mirroring the exchange tags); default is H. The flip is
        // confined to the owned prefix so the health check that follows
        // this step sees it — a halo flip would survive one health check
        // and could be captured into the next checkpoint, turning rollback
        // into replay-of-the-poison.
        const FieldId field =
            fault.tag >= 0 && fault.tag < sw::kNumFields
                ? static_cast<FieldId>(fault.tag)
                : FieldId::H;
        const auto& lm = locals_[static_cast<std::size_t>(r)];
        const auto owned = static_cast<std::size_t>(
            sw::field_info(field).location == MeshLocation::Cell
                ? lm.num_owned_cells
                : lm.num_owned_edges);
        auto data = stores_[static_cast<std::size_t>(r)]->get(field);
        flip_state_bit(data.first(std::min(owned, data.size())), fault.word,
                       fault.bit);
      }
    }
  }
}

sw::StateHealth DistributedSw::state_health() {
  std::vector<sw::StateHealth> partial(static_cast<std::size_t>(num_ranks()));
  for_each_rank([&](int r) {
    const auto& lm = locals_[static_cast<std::size_t>(r)];
    partial[static_cast<std::size_t>(r)] = sw::compute_state_health(
        lm.mesh, *stores_[static_cast<std::size_t>(r)], lm.num_owned_cells,
        lm.num_owned_edges);
  });
  sw::StateHealth health;
  for (const auto& p : partial) health += p;  // rank order
  return health;
}

bool DistributedSw::state_healthy(std::string* reason) {
  Resilience& rs = *resilience_;
  rs.health_checks += 1;
  const sw::StateHealth health = state_health();
  std::ostringstream why;
  if (!health.finite) {
    why << "non-finite prognostic state";
  } else if (health.h_min <= 0) {
    why << "non-positive thickness " << health.h_min;
  } else {
    const Real mass_drift =
        std::abs(health.mass - rs.baseline_mass) / std::abs(rs.baseline_mass);
    const Real energy_drift = std::abs(health.energy - rs.baseline_energy) /
                              std::abs(rs.baseline_energy);
    if (mass_drift > rs.options.mass_drift_tol)
      why << "mass drift " << mass_drift << " exceeds "
          << rs.options.mass_drift_tol;
    else if (energy_drift > rs.options.energy_drift_tol)
      why << "energy drift " << energy_drift << " exceeds "
          << rs.options.energy_drift_tol;
  }
  const std::string text = why.str();
  if (text.empty()) return true;
  if (reason != nullptr) *reason = text;
  return false;
}

void DistributedSw::drain_stale_messages() {
  for (const auto& q : world_->pending())
    resilience_->channel.drain_stale(q.to, q.from, q.tag);
}

std::string DistributedSw::rank_entity(int rank) const {
  return "rank" + std::to_string(rank);
}

void DistributedSw::set_fault_injector(resilience::FaultInjector* injector) {
  world_->set_fault_injector(injector);
}

void DistributedSw::set_health_monitor(
    resilience::health::HealthMonitor* monitor) {
  health_ = monitor;
  if (health_ == nullptr) return;
  for (int r = 0; r < num_ranks(); ++r) health_->track(rank_entity(r));
  health_generation_ = health_->generation();
}

void DistributedSw::feed_health(std::int64_t step) {
  const Real nominal = resilience_->options.nominal_step_seconds;
  for (int r = 0; r < num_ranks(); ++r) {
    const Real stalled = static_cast<std::size_t>(r) < stall_scratch_.size()
                             ? stall_scratch_[static_cast<std::size_t>(r)]
                             : 0.0;
    health_->observe_step_time(rank_entity(r), step, nominal + stalled);
  }
  health_->end_step(step);
}

void DistributedSw::shrink_quarantined_ranks() {
  if (health_->generation() == health_generation_) return;
  health_generation_ = health_->generation();
  int quarantined = 0;
  for (int r = 0; r < num_ranks(); ++r)
    if (!health_->usable(rank_entity(r))) quarantined += 1;
  if (quarantined == 0) return;
  MPAS_CHECK_MSG(quarantined < num_ranks(),
                 "every rank is quarantined — nothing left to shrink onto");
  const int survivors = num_ranks() - quarantined;
  // Ranks renumber 0..survivors-1 on the new fabric; the old identities
  // are gone, so re-register the survivors' entities from scratch.
  for (int r = 0; r < num_ranks(); ++r) health_->forget(rank_entity(r));
  shrink_to(survivors);
  for (int r = 0; r < num_ranks(); ++r) health_->track(rank_entity(r));
  health_generation_ = health_->generation();
}

void DistributedSw::shrink_to(int new_num_ranks) {
  MPAS_CHECK_MSG(new_num_ranks >= 1, "cannot shrink below one rank");
  MPAS_CHECK_MSG(new_num_ranks <= num_ranks(),
                 "shrink_to(" << new_num_ranks << ") on a " << num_ranks()
                              << "-rank world");
  if (resilience_) drain_stale_messages();
  MPAS_CHECK_MSG(!world_->has_pending(),
                 "shrink_to with live halo traffic in flight");
  MPAS_TRACE_INSTANT_ARGS(
      "health:shrink",
      obs::trace_arg("from_ranks", static_cast<std::int64_t>(num_ranks())) +
          "," +
          obs::trace_arg("to_ranks", static_cast<std::int64_t>(new_num_ranks)));

  // 1. Assemble the prognostic state by global id from the current owners.
  const std::vector<Real> h = gather_global(FieldId::H);
  const std::vector<Real> u = gather_global(FieldId::U);
  std::vector<Real> q;
  if (params_.with_tracer) q = gather_global(FieldId::TracerQ);

  // 2. Rebuild the decomposition and the fabric on the survivor count.
  part_ = partition::partition_cells_rcb(global_, new_num_ranks);
  locals_.clear();
  plans_.clear();
  stores_.clear();
  locals_.reserve(static_cast<std::size_t>(new_num_ranks));
  for (int r = 0; r < new_num_ranks; ++r)
    locals_.push_back(
        partition::build_local_mesh(global_, part_, r, halo_layers_));
  plans_ = partition::build_exchange_plans(global_, part_, locals_);
  for (int r = 0; r < new_num_ranks; ++r)
    stores_.push_back(std::make_unique<sw::FieldStore>(
        locals_[static_cast<std::size_t>(r)].mesh));
  world_ = std::make_unique<SimWorld>(new_num_ranks);
  pool_.reset();  // the old workers exit before the new ones start
  pool_ =
      std::make_unique<exec::ThreadPool>(rank_pool_workers(new_num_ranks));

  // 3. Re-arm the resilience engine over the new fabric. The channel (and
  //    its per-stream sequence state) restarts clean; cumulative counters
  //    carry over, the conserved-integral baselines stay valid (they are
  //    partition-independent), and the checkpoint is invalidated — the
  //    resilient loop takes a fresh one before the next step.
  if (resilience_) {
    const ResilienceOptions opts = resilience_->options;
    const auto carried = add_stats(resilience_->carried,
                                   resilience_->channel.stats());
    auto old = std::move(resilience_);
    resilience_ = std::make_unique<Resilience>(*world_, opts);
    resilience_->carried = carried;
    resilience_->baseline_set = old->baseline_set;
    resilience_->baseline_mass = old->baseline_mass;
    resilience_->baseline_energy = old->baseline_energy;
    resilience_->health_checks = old->health_checks;
    resilience_->poisoned_detected = old->poisoned_detected;
    resilience_->rollbacks = old->rollbacks;
    resilience_->steps_replayed = old->steps_replayed;
    resilience_->stalls = old->stalls;
    resilience_->modeled_seconds_lost = old->modeled_seconds_lost;
    world_->set_fault_injector(opts.injector);
  }

  // 4. Refill every local entity (owned and halo) from the global arrays —
  //    identical values to what an exchange would deliver — then re-derive
  //    the diagnostics, which is exactly the state a completed step leaves
  //    (initialize() mirrors the step's tail: diagnostics + PvEdge halo +
  //    reconstruct). Owned values are rank-count-invariant, so the
  //    continued integration is bitwise identical to an uninterrupted run.
  for (int r = 0; r < new_num_ranks; ++r) {
    const auto& lm = locals_[static_cast<std::size_t>(r)];
    sw::FieldStore& store = *stores_[static_cast<std::size_t>(r)];
    auto fill = [&](FieldId field, const std::vector<Real>& global) {
      auto data = store.get(field);
      const bool cells = sw::field_info(field).location == MeshLocation::Cell;
      const Index n = cells ? lm.mesh.num_cells : lm.mesh.num_edges;
      const auto& ids = cells ? lm.mesh.global_cell_id : lm.mesh.global_edge_id;
      for (Index i = 0; i < n; ++i)
        data[static_cast<std::size_t>(i)] =
            global[static_cast<std::size_t>(ids[static_cast<std::size_t>(i)])];
    };
    fill(FieldId::H, h);
    fill(FieldId::U, u);
    if (params_.with_tracer) fill(FieldId::TracerQ, q);
  }
  stall_scratch_.assign(static_cast<std::size_t>(new_num_ranks), 0.0);
  initialize();
}

resilience::ResilienceStats DistributedSw::resilience_stats() const {
  MPAS_CHECK_MSG(resilience_, "resilience not enabled");
  const Resilience& rs = *resilience_;
  resilience::ResilienceStats stats;
  if (rs.options.injector != nullptr)
    stats.injected = rs.options.injector->stats();
  stats.channel = add_stats(rs.carried, rs.channel.stats());
  stats.health_checks = rs.health_checks;
  stats.poisoned_states_detected = rs.poisoned_detected;
  stats.rollbacks = rs.rollbacks;
  stats.steps_replayed = rs.steps_replayed;
  stats.stalls = rs.stalls;
  stats.modeled_seconds_lost = rs.modeled_seconds_lost;
  return stats;
}

std::vector<Real> DistributedSw::gather_global(FieldId field) const {
  const MeshLocation loc = sw::field_info(field).location;
  const std::int64_t n = loc == MeshLocation::Cell ? global_.num_cells
                         : loc == MeshLocation::Edge ? global_.num_edges
                                                     : global_.num_vertices;
  std::vector<Real> out(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < num_ranks(); ++r) {
    const auto& lm = locals_[static_cast<std::size_t>(r)];
    const auto data = stores_[static_cast<std::size_t>(r)]->get(field);
    if (loc == MeshLocation::Cell) {
      for (Index i = 0; i < lm.num_owned_cells; ++i)
        out[static_cast<std::size_t>(
            lm.mesh.global_cell_id[static_cast<std::size_t>(i)])] =
            data[static_cast<std::size_t>(i)];
    } else if (loc == MeshLocation::Edge) {
      for (Index i = 0; i < lm.num_owned_edges; ++i)
        out[static_cast<std::size_t>(
            lm.mesh.global_edge_id[static_cast<std::size_t>(i)])] =
            data[static_cast<std::size_t>(i)];
    } else {
      MPAS_FAIL("gather for vertex fields not supported");
    }
  }
  return out;
}

}  // namespace mpas::comm
