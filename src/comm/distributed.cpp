#include "comm/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "resilience/channel.hpp"
#include "sw/state_codec.hpp"
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

/// What a resilient run accumulates: the health-check baseline and the
/// incident counters reported through ResilienceStats. It outlives the
/// engine that shrink_to rebuilds over a new fabric.
struct ResilienceTally {
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
};

/// The per-integrator resilience engine: the sequenced channel over the
/// message fabric, the rolling checkpoint, and the run's tally.
struct DistributedSw::Resilience : ResilienceTally {
  ResilienceOptions options;
  SimWorldTransport transport;
  resilience::ResilientChannel channel;
  // Every rank's state fields (sw::state_fields()), kept unencoded: the
  // injector's StateCorrupt flips live state, never this copy.
  std::optional<resilience::durable::CheckpointImage> checkpoint;

  Resilience(SimWorld& world, const ResilienceOptions& opts,
             const ResilienceTally& tally = {})
      : ResilienceTally(tally),
        options(opts),
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
      world_(std::make_unique<SimWorld>(num_ranks)),
      pool_(std::make_unique<exec::ThreadPool>(
          rank_pool_workers(num_ranks))) {
  // The irregular (scatter) variants traverse whole arrays, including ghost
  // entities with off-rank neighbours — they are not partition-safe. This
  // mirrors the paper: the original loops had to be refactored before any
  // decomposition of the iteration space.
  MPAS_CHECK_MSG(variant_ != sw::LoopVariant::Irregular,
                 "irregular loop variants cannot run on partitioned meshes");
  decompose(num_ranks);
}

DistributedSw::~DistributedSw() = default;  // Resilience is complete here

void DistributedSw::decompose(int num_ranks) {
  models_.clear();  // they reference the local meshes rebuilt below
  locals_.clear();
  const partition::Partition part =
      partition::partition_cells_rcb(global_, num_ranks);
  for (int r = 0; r < num_ranks; ++r)
    locals_.push_back(
        partition::build_local_mesh(global_, part, r, halo_layers_));
  plans_ = partition::build_exchange_plans(global_, part, locals_);
  // A rank model gets no pool of its own: it runs inside a rank-pool
  // region, and ThreadPool::parallel_for is not reentrant.
  auto host = [this](const core::DataflowGraph& graph) {
    core::Schedule s = core::make_single_device_schedule(
        graph, core::DeviceSide::Host, "rank");
    s.host_variant = static_cast<core::VariantChoice>(variant_);
    return s;
  };
  for (const partition::LocalMesh& lm : locals_) {
    auto model = std::make_unique<sw::SwModel>(lm, params_);
    const sw::SwGraphs& g = model->graphs();
    model->set_schedules(host(g.setup), host(g.early), host(g.final));
    models_.push_back(std::move(model));
  }
}

void DistributedSw::apply_test_case(const sw::TestCase& tc) {
  // Initial conditions are analytic, so every rank fills *all* local
  // entities (halo included) directly — the values match the owners'
  // bitwise because they come from the same lon/lat formulas.
  for (const auto& model : models_)
    sw::apply_initial_conditions(tc, model->mesh(), model->fields());
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
    const auto data = fields(r).get(field);
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
    auto data = fields(r).get(field);
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

void DistributedSw::run_segments(sw::SwModel::Phase phase) {
  const sw::SwModel& lead = *models_.front();
  for (int i = 0; i < lead.num_segments(phase); ++i) {
    for_each_rank([&](int r) {
      models_[static_cast<std::size_t>(r)]->run_segment(phase, i);
    });
    for (FieldId field : lead.segment_exchange(phase, i)) exchange(field);
  }
}

void DistributedSw::initialize() {
  run_segments(sw::SwModel::Phase::Initialize);
}

void DistributedSw::step() {
  MPAS_TRACE_SCOPE("distributed:step");
  run_segments(sw::SwModel::Phase::Step);
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
    if (!resilience_->checkpoint ||
        (step_index_ % resilience_->options.checkpoint_interval == 0 &&
         resilience_->checkpoint->step != step_index_))
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
  // Built aside and then moved in: a capture that throws leaves the
  // previous checkpoint the rollback target.
  resilience::durable::CheckpointImage image;
  image.step = step_index_;
  for (int r = 0; r < num_ranks(); ++r) sw::snapshot_state(fields(r), r, image);
  resilience_->checkpoint = std::move(image);
}

void DistributedSw::rollback() {
  Resilience& rs = *resilience_;
  MPAS_CHECK_MSG(rs.checkpoint, "rollback without a checkpoint");
  const std::int64_t to_step = rs.checkpoint->step;
  MPAS_TRACE_INSTANT_ARGS(
      "resilience:rollback",
      obs::trace_arg("from_step", static_cast<std::int64_t>(step_index_)) +
          "," + obs::trace_arg("to_step", to_step));
  // 1. Every rank's state fields, halos included.
  for (int r = 0; r < num_ranks(); ++r)
    sw::restore_state(*rs.checkpoint, r, fields(r));
  rs.rollbacks += 1;
  rs.steps_replayed += static_cast<std::uint64_t>(step_index_ - to_step);
  step_index_ = to_step;
  // 2. Halo traffic still in flight belongs to the abandoned timeline: every
  //    envelope queued now is a retransmission duplicate whose sequence the
  //    receivers already consumed (the step's exchanges all completed
  //    before the health check could fail). Discard them so the exchange
  //    below starts from quiescence — a *live* envelope here would be a
  //    protocol bug, and drain_stale throws on one rather than dropping it.
  drain_stale_messages();
  // 3. Re-derive the diagnostics and the reconstruction from the restored
  //    state: the state a completed step leaves, as in shrink_to.
  initialize();
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
        auto data = fields(r).get(field);
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
        lm.mesh, fields(r), lm.num_owned_cells, lm.num_owned_edges);
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

  // 1. Assemble the state fields by global id from the owners.
  const std::span<const FieldId> state = sw::state_fields();
  std::vector<std::vector<Real>> global_state;
  for (const FieldId field : state)
    global_state.push_back(gather_global(field));

  // 2. Rebuild the decomposition and the fabric on the survivor count.
  decompose(new_num_ranks);
  world_ = std::make_unique<SimWorld>(new_num_ranks);
  pool_.reset();  // the old workers exit before the new ones start
  pool_ =
      std::make_unique<exec::ThreadPool>(rank_pool_workers(new_num_ranks));

  // 3. Re-arm the resilience engine over the new fabric. The channel (and
  //    its per-stream sequence state) restarts clean; the tally carries
  //    over, the conserved-integral baselines stay valid (they are
  //    partition-independent), and the checkpoint is invalidated — the
  //    resilient loop takes a fresh one before the next step.
  if (resilience_) {
    ResilienceTally tally = *resilience_;
    tally.carried = add_stats(tally.carried, resilience_->channel.stats());
    const ResilienceOptions opts = resilience_->options;
    resilience_ = std::make_unique<Resilience>(*world_, opts, tally);
    world_->set_fault_injector(opts.injector);
  }

  // 4. Refill every local entity (owned and halo) from the global arrays —
  //    identical values to what an exchange would deliver — then re-derive
  //    the diagnostics, which is exactly the state a completed step leaves
  //    (initialize() is the final graph's tail: diagnostics + PvEdge halo +
  //    reconstruct). Owned values are rank-count-invariant, so the
  //    continued integration is bitwise identical to an uninterrupted run.
  for (int r = 0; r < new_num_ranks; ++r) {
    const auto& lm = locals_[static_cast<std::size_t>(r)];
    for (std::size_t k = 0; k < state.size(); ++k) {
      auto data = fields(r).get(state[k]);
      const bool cells =
          sw::field_info(state[k]).location == MeshLocation::Cell;
      const auto& ids = cells ? lm.mesh.global_cell_id : lm.mesh.global_edge_id;
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = global_state[k][static_cast<std::size_t>(ids[i])];
    }
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
  MPAS_CHECK_MSG(loc == MeshLocation::Cell || loc == MeshLocation::Edge,
                 "gather supports cell and edge fields only");
  const bool cells = loc == MeshLocation::Cell;
  std::vector<Real> out(
      static_cast<std::size_t>(cells ? global_.num_cells : global_.num_edges));
  for (int r = 0; r < num_ranks(); ++r) {
    const auto& lm = locals_[static_cast<std::size_t>(r)];
    const auto& ids = cells ? lm.mesh.global_cell_id : lm.mesh.global_edge_id;
    const auto data = models_[static_cast<std::size_t>(r)]->fields().get(field);
    const Index owned = cells ? lm.num_owned_cells : lm.num_owned_edges;
    for (Index i = 0; i < owned; ++i)
      out[static_cast<std::size_t>(ids[static_cast<std::size_t>(i)])] =
          data[static_cast<std::size_t>(i)];
  }
  return out;
}

}  // namespace mpas::comm
