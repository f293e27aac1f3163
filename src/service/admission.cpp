#include "service/admission.hpp"

#include <algorithm>
#include <sstream>

#include "sw/model.hpp"
#include "util/error.hpp"

namespace mpas::service {

namespace {

constexpr Real kEps = 1e-12;  // admission comparisons on summed Reals

std::int64_t cells_at_level(int level) {
  std::int64_t cells = 10;
  for (int i = 0; i < level; ++i) cells *= 4;
  return cells + 2;
}

}  // namespace

CostModel::CostModel(core::SimOptions sim) : sim_(sim) {}

const CostModel::LevelCost& CostModel::level_cost(int mesh_level) const {
  // The memoized pricing fill IS this lock's critical section: concurrent
  // submits for the same level must price it once.
  // concurrency-lint: allow(blocking-under-lock) memo fill is the critical section
  const util::LockGuard lock(mutex_);
  if (const auto it = cache_.find(mesh_level); it != cache_.end())
    return it->second;

  // Structure-only graphs (no mesh, no field bodies): pricing must stay
  // cheap enough to run on every submit.
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, false);
  const auto sizes = core::MeshSizes::icosahedral(cells_at_level(mesh_level));
  const auto makespan = [&](const core::DataflowGraph& graph) {
    const core::Schedule schedule =
        core::make_pattern_level_schedule(graph, sizes, sim_);
    return core::simulate_schedule(graph, schedule, sizes, sim_).makespan;
  };
  LevelCost cost;
  // One RK-4 step = setup + 3 early substeps + the final substep.
  cost.step_seconds = makespan(graphs.setup) + 3 * makespan(graphs.early) +
                      makespan(graphs.final);
  // One output = H (cells) + U (edges) downloaded over the platform link.
  const std::int64_t bytes =
      static_cast<std::int64_t>(sizeof(Real)) * (sizes.cells + sizes.edges);
  cost.output_seconds = sim_.platform.link.time(bytes);
  return cache_.emplace(mesh_level, cost).first->second;
}

Real CostModel::step_seconds(int mesh_level) const {
  return level_cost(mesh_level).step_seconds;
}

Real CostModel::output_seconds(int mesh_level) const {
  return level_cost(mesh_level).output_seconds;
}

Real CostModel::price(const SessionRequest& request) const {
  MPAS_CHECK_MSG(request.steps > 0, "session must run at least one step");
  MPAS_CHECK_MSG(request.mesh_level >= 0 && request.mesh_level <= 9,
                 "mesh level out of range");
  const LevelCost& cost = level_cost(request.mesh_level);
  const int outputs =
      request.output_every > 0 ? request.steps / request.output_every : 0;
  return cost.step_seconds * request.steps + cost.output_seconds * outputs;
}

AdmissionController::AdmissionController(AdmissionPolicy policy,
                                         const CostModel* costs)
    : policy_(policy), costs_(costs) {
  MPAS_CHECK_MSG(policy_.capacity_modeled_s > 0, "capacity must be positive");
  MPAS_CHECK(costs_ != nullptr);
}

void AdmissionController::set_tenant_weight(const std::string& tenant,
                                            Real weight) {
  MPAS_CHECK_MSG(weight > 0, "tenant weight must be positive");
  weights_[tenant] = weight;
}

Real AdmissionController::tenant_weight(const std::string& tenant) const {
  const auto it = weights_.find(tenant);
  return it == weights_.end() ? 1.0 : it->second;
}

Real AdmissionController::tenant_budget(const std::string& tenant) const {
  Real total = 0;
  bool declared = false;
  for (const auto& [name, w] : weights_) {
    total += w;
    declared = declared || name == tenant;
  }
  if (!declared) total += 1.0;  // undeclared tenants weigh 1
  return policy_.capacity_modeled_s * tenant_weight(tenant) / total;
}

AdmissionOutcome AdmissionController::decide(
    const SessionRequest& request, const AdmissionInput& input) const {
  AdmissionOutcome out;
  out.effective = request;

  // Rung 0: backpressure. A tenant flooding the queue is told to back off
  // before any pricing happens.
  if (input.queued_of_tenant >= policy_.max_queued_per_tenant) {
    std::ostringstream os;
    os << "backpressure: tenant '" << request.tenant << "' already has "
       << input.queued_of_tenant << " queued sessions (bound "
       << policy_.max_queued_per_tenant << ")";
    out.reason = os.str();
    out.reason_code = ReasonCode::RejectBackpressure;
    return out;
  }

  out.cost = costs_->price(request);
  const Real budget = tenant_budget(request.tenant);

  // Mutable view of the load; reclaim/shed rungs rehearse evictions here.
  Real total = input.outstanding_total;
  std::map<std::string, Real> by_tenant = input.outstanding_by_tenant;
  Real& mine = by_tenant[request.tenant];  // tracks rehearsed sheds too

  const auto fits = [&](Real cost) {
    return total + cost <= policy_.capacity_modeled_s + kEps;
  };
  const auto admit = [&](Real cost, const std::string& note,
                         ReasonCode code) {
    out.action = AdmissionOutcome::Action::Admit;
    out.cost = cost;
    out.borrowed = mine + cost > budget + kEps;
    std::ostringstream os;
    os << (out.borrowed ? "admitted borrowing spare capacity beyond the "
                          "tenant guarantee"
                        : "admitted within the tenant guarantee");
    if (!note.empty()) os << "; " << note;
    out.reason = os.str();
    out.reason_code = code != ReasonCode::None
                          ? code
                          : (out.borrowed ? ReasonCode::AdmitBorrowed
                                          : ReasonCode::AdmitGuarantee);
  };

  // Rung 1 + 2: fit as-is, within the guarantee or borrowing spare.
  if (fits(out.cost)) {
    admit(out.cost, "", ReasonCode::None);
    return out;
  }

  // Rung 3: reclaim borrowed queue slots — but only for a request that
  // would itself sit within its guarantee (reclaiming to borrow more
  // would just thrash).
  std::vector<ShedCandidate> candidates = input.queued;
  const auto rehearse_shed = [&](const ShedCandidate& c,
                                 const std::string& why, ReasonCode code) {
    total -= c.cost;
    by_tenant[c.tenant] -= c.cost;
    out.shed.push_back({c.id, why, code});
    candidates.erase(
        std::find_if(candidates.begin(), candidates.end(),
                     [&c](const ShedCandidate& x) { return x.id == c.id; }));
  };
  if (mine + out.cost <= budget + kEps) {
    while (!fits(out.cost)) {
      // Most polite eviction: the borrowed slot of the tenant furthest
      // over its guarantee; ties to the lowest priority, then youngest.
      const ShedCandidate* best = nullptr;
      Real best_excess = kEps;
      for (const ShedCandidate& c : candidates) {
        if (!c.borrowed || c.tenant == request.tenant) continue;
        const Real excess = by_tenant[c.tenant] - tenant_budget(c.tenant);
        if (excess <= kEps) continue;  // no longer over after earlier sheds
        const bool better =
            best == nullptr || excess > best_excess + kEps ||
            (excess > best_excess - kEps &&
             (c.priority < best->priority ||
              (c.priority == best->priority && c.seq > best->seq)));
        if (better) {
          best = &c;
          best_excess = excess;
        }
      }
      if (best == nullptr) break;
      std::ostringstream os;
      os << "reclaimed: tenant '" << best->tenant
         << "' was borrowing beyond its guaranteed share and tenant '"
         << request.tenant << "' claimed its guarantee";
      rehearse_shed(*best, os.str(), ReasonCode::ShedReclaimed);
    }
    if (fits(out.cost)) {
      admit(out.cost, "after reclaiming borrowed capacity",
            ReasonCode::AdmitReclaimed);
      return out;
    }
  }

  // Rung 4: priority load-shedding — evict strictly lower-priority queued
  // work, lowest priority first, youngest first among equals.
  while (!fits(out.cost)) {
    const ShedCandidate* best = nullptr;
    for (const ShedCandidate& c : candidates) {
      if (c.priority >= request.priority) continue;
      const bool better = best == nullptr || c.priority < best->priority ||
                          (c.priority == best->priority && c.seq > best->seq);
      if (better) best = &c;
    }
    if (best == nullptr) break;
    std::ostringstream os;
    os << "shed: priority " << best->priority
       << " session evicted under overload for a priority "
       << request.priority << " submission";
    rehearse_shed(*best, os.str(), ReasonCode::ShedPriority);
  }
  if (fits(out.cost)) {
    admit(out.cost, "after shedding lower-priority sessions",
          ReasonCode::AdmitAfterShed);
    return out;
  }

  // Rung 5: degraded fidelity — coarsen one level at a time (halving the
  // output cadence with it) until the run fits or the floor is hit.
  if (request.allow_degraded) {
    SessionRequest degraded = request;
    while (degraded.mesh_level > policy_.degrade_min_level) {
      degraded.mesh_level -= 1;
      if (degraded.output_every > 0) degraded.output_every *= 2;
      const Real cost = costs_->price(degraded);
      if (fits(cost)) {
        out.action = AdmissionOutcome::Action::AdmitDegraded;
        out.effective = degraded;
        out.cost = cost;
        out.borrowed = mine + cost > budget + kEps;
        std::ostringstream os;
        os << "degraded under overload: mesh level " << request.mesh_level
           << " -> " << degraded.mesh_level;
        if (request.output_every > 0)
          os << ", output cadence " << request.output_every << " -> "
             << degraded.output_every;
        out.reason = os.str();
        out.reason_code = ReasonCode::AdmitDegraded;
        return out;
      }
    }
  }

  // Rung 6: reject, with the arithmetic that forced it.
  out.action = AdmissionOutcome::Action::Reject;
  out.shed.clear();  // rehearsed evictions are void on rejection
  std::ostringstream os;
  os << "overload: request needs " << out.cost << " modeled s but only "
     << std::max<Real>(0, policy_.capacity_modeled_s -
                              input.outstanding_total)
     << " of " << policy_.capacity_modeled_s
     << " is free, nothing lower-priority to shed"
     << (request.allow_degraded ? ", degradation exhausted"
                                : ", degradation not permitted");
  out.reason = os.str();
  out.reason_code = ReasonCode::RejectOverload;
  return out;
}

}  // namespace mpas::service
