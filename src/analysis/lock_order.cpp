#include "analysis/lock_order.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace mpas::analysis {

namespace {

/// Currently-held mutexes on this thread, oldest first. Thread-local so
/// the hot path never synchronizes; the shared graph is only touched for
/// *new* edges. A mutex taken after the chain is destroyed (by a later
/// thread_local destructor, or an atexit handler on the main thread) finds
/// t_held_gone set, which is trivially destructible, and is ignored.
thread_local bool t_held_gone = false;
struct HeldChain : std::vector<const util::Mutex*> {
  ~HeldChain() { t_held_gone = true; }
};
thread_local HeldChain t_held;

/// Reentrancy latch: the registry's own publishing (metrics counters,
/// trace instants) takes util::Mutexes whose hooks must not recurse into
/// the registry, and the internal std::mutex must never be re-entered.
thread_local bool t_in_hook = false;

/// Per-acquisition counter kept as an atomic here (not behind the graph
/// mutex) so held-chain bookkeeping stays lock-free for already-known
/// edges.
std::atomic<std::uint64_t> g_acquisitions{0};

}  // namespace

LockOrderRegistry& LockOrderRegistry::instance() {
  // Leaked on purpose (like the trace recorder / metrics registry): mutex
  // hooks may fire from worker threads during static destruction.
  static LockOrderRegistry* registry =
      new LockOrderRegistry();  // lint_conventions: allowlisted singleton
  return *registry;
}

void LockOrderRegistry::install() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    installed_ = true;
  }
  util::MutexHooks hooks;
  hooks.on_lock = &LockOrderRegistry::hook_lock;
  hooks.on_unlock = &LockOrderRegistry::hook_unlock;
  util::set_mutex_hooks(hooks);
}

void LockOrderRegistry::uninstall() {
  util::clear_mutex_hooks();
  const std::lock_guard<std::mutex> lock(mutex_);
  installed_ = false;
}

bool LockOrderRegistry::installed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return installed_;
}

bool LockOrderRegistry::install_from_env() {
  if (!env::flag("MPAS_LOCK_CHECK")) return false;
  LockOrderRegistry& registry = instance();
  if (registry.installed()) return true;
  registry.install();
  // At-exit enforcement: any accumulated lock-order error turns into a
  // nonzero process exit, so MPAS_LOCK_CHECK=1 soaks and ctest runs fail
  // on a cycle without per-binary wiring. The report also lands in
  // lockorder_report.txt for CI artifact upload.
  static const bool enforcement_registered = [] {
    std::atexit([] {
      LockOrderRegistry& reg = instance();
      if (!reg.installed()) return;
      const Report report = reg.report();
      if (report.clean()) return;
      const std::string text = report.to_string();
      std::fprintf(stderr,
                   "MPAS_LOCK_CHECK: %d lock-order error(s) detected:\n%s",
                   report.errors(), text.c_str());
      std::ofstream out("lockorder_report.txt");
      out << text;
      out.close();
      std::_Exit(70);  // skip remaining handlers; diagnostics are flushed
    });
    return true;
  }();
  (void)enforcement_registered;
  return true;
}

void LockOrderRegistry::hook_lock(const util::Mutex& m) {
  instance().on_lock(m);
}

void LockOrderRegistry::hook_unlock(const util::Mutex& m) {
  instance().on_unlock(m);
}

bool LockOrderRegistry::reachable_locked(std::uint64_t from,
                                         std::uint64_t to) const {
  std::vector<std::uint64_t> stack{from};
  std::set<std::uint64_t> visited;
  while (!stack.empty()) {
    const std::uint64_t node = stack.back();
    stack.pop_back();
    if (node == to) return true;
    if (!visited.insert(node).second) continue;
    const auto it = succ_.find(node);
    if (it == succ_.end()) continue;
    for (const std::uint64_t next : it->second) stack.push_back(next);
  }
  return false;
}

std::string LockOrderRegistry::node_label_locked(std::uint64_t id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end() || it->second.name.empty())
    return "mutex#" + std::to_string(id);
  return it->second.name;
}

void LockOrderRegistry::on_lock(const util::Mutex& m) {
  if (t_in_hook || t_held_gone) return;
  t_in_hook = true;
  g_acquisitions.fetch_add(1, std::memory_order_relaxed);

  std::vector<Diagnostic> fresh;
  bool new_edges = false;
  if (!t_held.empty()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& to_node = nodes_[m.id()];
    if (to_node.name.empty() && m.name()[0] != '\0') to_node.name = m.name();
    to_node.rank = m.rank();

    for (const util::Mutex* held : t_held) {
      if (held->id() == m.id()) {
        // std::mutex is non-recursive: re-acquiring while held is a
        // guaranteed self-deadlock. (Defensive: reaching this line means
        // the thread is already deadlocked unless try_lock raced.)
        Diagnostic d;
        d.code = "lock-self";
        d.field = m.name();
        d.message = "self-deadlock: mutex '" + node_label_locked(m.id()) +
                    "' re-acquired by the thread already holding it";
        report_.add(d);
        fresh.push_back(std::move(d));
        continue;
      }
      auto& from_node = nodes_[held->id()];
      if (from_node.name.empty() && held->name()[0] != '\0')
        from_node.name = held->name();
      from_node.rank = held->rank();

      // Rank inversion: DESIGN.md §14 orders ranked mutexes strictly
      // ascending along any acquisition chain.
      if (held->rank() > 0 && m.rank() > 0 && m.rank() <= held->rank() &&
          flagged_ranks_.insert({held->id(), m.id()}).second) {
        Diagnostic d;
        d.code = "lock-rank";
        d.field = m.name();
        std::ostringstream os;
        os << "rank inversion: '" << node_label_locked(m.id()) << "' (rank "
           << m.rank() << ") acquired while holding '"
           << node_label_locked(held->id()) << "' (rank " << held->rank()
           << ") — ranks must strictly increase along a chain";
        d.message = os.str();
        report_.add(d);
        fresh.push_back(std::move(d));
      }

      // New lock-order edge held -> m. A cycle through the existing graph
      // means two threads interleaving these chains can deadlock.
      if (succ_[held->id()].insert(m.id()).second) {
        new_edges = true;
        if (reachable_locked(m.id(), held->id()) &&
            flagged_edges_.insert({held->id(), m.id()}).second) {
          Diagnostic d;
          d.code = "lock-cycle";
          d.field = m.name();
          std::ostringstream os;
          os << "potential deadlock: acquiring '" << node_label_locked(m.id())
             << "' while holding '" << node_label_locked(held->id())
             << "' closes a lock-order cycle (reverse nesting was already "
                "observed)";
          d.message = os.str();
          report_.add(d);
          fresh.push_back(std::move(d));
        }
      }
    }
  }
  t_held.push_back(&m);

  // Publish outside the internal mutex: the metric/trace sinks take
  // util::Mutexes, and another thread mid-acquisition of those sinks may
  // be about to enter this hook — holding the graph mutex across the
  // publish would make the detector itself deadlock-prone.
  if (new_edges || !fresh.empty()) {
    auto& registry = obs::MetricsRegistry::global();
    if (new_edges) registry.counter("analysis.lockorder.edges").add(1);
    for (const Diagnostic& d : fresh) {
      if (d.code == "lock-cycle")
        registry.counter("analysis.lockorder.cycles").add(1);
      else if (d.code == "lock-rank")
        registry.counter("analysis.lockorder.rank_inversions").add(1);
      else
        registry.counter("analysis.lockorder.self_deadlocks").add(1);
      MPAS_TRACE_INSTANT_ARGS(
          "lockorder:" + d.code.substr(5),
          obs::trace_arg("mutex", d.field) + "," +
              obs::trace_arg("message", d.message));
    }
  }
  t_in_hook = false;
}

void LockOrderRegistry::on_unlock(const util::Mutex& m) {
  if (t_in_hook || t_held_gone) return;
  // Non-LIFO unlock is legal (UniqueLock::unlock): drop the most recent
  // matching entry. A miss means the mutex was locked before install().
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (*it == &m) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

Report LockOrderRegistry::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

std::vector<LockOrderRegistry::Edge> LockOrderRegistry::edges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Edge> out;
  for (const auto& [from, succs] : succ_)
    for (const std::uint64_t to : succs)
      out.push_back(
          {from, to, node_label_locked(from), node_label_locked(to)});
  return out;
}

std::uint64_t LockOrderRegistry::acquisitions() const {
  return g_acquisitions.load(std::memory_order_relaxed);
}

void LockOrderRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  succ_.clear();
  flagged_edges_.clear();
  flagged_ranks_.clear();
  report_ = Report{};
}

}  // namespace mpas::analysis
