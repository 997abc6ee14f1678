#include "cmp/partition.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/check.h"
#include "sync/registry.h"

namespace glb::cmp {

namespace {

bool ParseU32(std::string_view& s, std::uint32_t* out) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s.front())) == 0) {
    return false;
  }
  std::uint64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
    if (v > 0xFFFFFFFFull) return false;
    ++i;
  }
  s.remove_prefix(i);
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty()) return false;
  for (const char ch : name) {
    const auto u = static_cast<unsigned char>(ch);
    if (std::isalnum(u) == 0 && ch != '_' && ch != '-') return false;
  }
  return true;
}

/// Global->local id adapter in front of a rect-local hardware network:
/// cores arrive with their mesh-global id (the bar_reg write carries
/// it), the rect network counts local row-major ids.
class RectDevice final : public core::BarrierDevice {
 public:
  RectDevice(const Rect& rect, std::uint32_t mesh_cols,
             core::BarrierDevice* inner)
      : rect_(rect), mesh_cols_(mesh_cols), inner_(inner) {}

  void Arrive(CoreId core, core::BarrierWaiter& waiter) override {
    const std::uint32_t r = core / mesh_cols_;
    const std::uint32_t c = core % mesh_cols_;
    GLB_CHECK(rect_.Contains(r, c))
        << "core " << core << " arrived at a tenant barrier outside its rect "
        << rect_.ToString();
    const CoreId local = (r - rect_.row0) * rect_.cols + (c - rect_.col0);
    inner_->Arrive(local, waiter);
  }

 private:
  const Rect rect_;
  const std::uint32_t mesh_cols_;
  core::BarrierDevice* inner_;
};

}  // namespace

// --- Rect -------------------------------------------------------------------

std::string Rect::ToString() const {
  // Appends only: GCC 12's -Wrestrict misfires on `"@" + to_string(...)`
  // in Release builds.
  std::string s = std::to_string(rows);
  s += 'x';
  s += std::to_string(cols);
  if (row0 != 0 || col0 != 0) {
    s += '@';
    s += std::to_string(row0);
    s += ',';
    s += std::to_string(col0);
  }
  return s;
}

bool Rect::Parse(std::string_view s, Rect* out) {
  Rect r;
  if (!ParseU32(s, &r.rows)) return false;
  if (s.empty() || (s.front() != 'x' && s.front() != 'X')) return false;
  s.remove_prefix(1);
  if (!ParseU32(s, &r.cols)) return false;
  if (!s.empty()) {
    if (s.front() != '@') return false;
    s.remove_prefix(1);
    if (!ParseU32(s, &r.row0)) return false;
    if (s.empty() || s.front() != ',') return false;
    s.remove_prefix(1);
    if (!ParseU32(s, &r.col0)) return false;
    if (!s.empty()) return false;
  }
  if (r.empty()) return false;
  *out = r;
  return true;
}

// --- Tenant -----------------------------------------------------------------

/// Timing decorator: in_flight_ gates Resize/Teardown, the histogram
/// feeds the per-tenant manifest block and the isolation ablation.
class Tenant::TimedBarrier final : public sync::Barrier {
 public:
  explicit TimedBarrier(Tenant& t) : t_(t) {}

  core::Task Wait(core::Core& core) override {
    const Cycle start = core.engine().Now();
    ++t_.in_flight_;
    co_await t_.inner_->Wait(core);
    t_.wait_cycles_->Record(core.engine().Now() - start);
    t_.waits_->Inc();
    --t_.in_flight_;
  }

  const char* name() const override { return t_.inner_->name(); }

 private:
  Tenant& t_;
};

Tenant::Tenant(CmpSystem& sys, const TenantConfig& cfg)
    : sys_(sys), cfg_(cfg), prefix_("tenant." + cfg.name) {
  waits_ = sys_.stats().GetCounter(prefix_ + ".barrier_waits");
  wait_cycles_ = sys_.stats().GetHistogram(prefix_ + ".wait_cycles");
  Attach();
}

Tenant::~Tenant() { Detach(); }

CoreId Tenant::GlobalId(std::uint32_t rank) const {
  GLB_CHECK(rank < num_cores())
      << "rank " << rank << " out of range for tenant '" << cfg_.name << "' ("
      << num_cores() << " cores)";
  const std::uint32_t r = rank / cfg_.rect.cols;
  const std::uint32_t c = rank % cfg_.rect.cols;
  return (cfg_.rect.row0 + r) * sys_.config().cols + cfg_.rect.col0 + c;
}

std::uint32_t Tenant::RankOf(CoreId global) const {
  const std::uint32_t r = global / sys_.config().cols;
  const std::uint32_t c = global % sys_.config().cols;
  GLB_CHECK(cfg_.rect.Contains(r, c))
      << "core " << global << " is not a member of tenant '" << cfg_.name
      << "' (" << cfg_.rect.ToString() << ")";
  return (r - cfg_.rect.row0) * cfg_.rect.cols + (c - cfg_.rect.col0);
}

bool Tenant::Contains(CoreId global) const {
  const std::uint32_t r = global / sys_.config().cols;
  const std::uint32_t c = global % sys_.config().cols;
  return global < sys_.num_cores() && cfg_.rect.Contains(r, c);
}

void Tenant::Attach() {
  const Rect& rect = cfg_.rect;

  // Hardware kinds get a rect-local device under the tenant's
  // transmitter budget; kReject turns any budget overrun into a
  // construction CHECK, which ValidateTenant makes unreachable for kGL
  // and the cluster clamp makes unreachable for kGLH.
  if (cfg_.barrier == sync::BarrierKind::kGL ||
      cfg_.barrier == sync::BarrierKind::kGLH) {
    gline::BarrierNetConfig node;
    node.max_transmitters = cfg_.max_transmitters;
    node.policy = gline::TxPolicy::kReject;
    gline_ = std::make_unique<gline::HierarchicalBarrierNetwork>(
        sys_.engine(), rect.rows, rect.cols,
        GlineDevice(cfg_.barrier, std::move(node), prefix_ + "."), sys_.stats());
    rect_device_ = std::make_unique<RectDevice>(rect, sys_.config().cols,
                                                gline_.get());
  }

  // Renumber members to dense ranks 0..P-1 (row-major within the rect)
  // and, for hardware kinds, point their bar_reg at the rect network.
  for (std::uint32_t rank = 0; rank < num_cores(); ++rank) {
    core::Core& core = sys_.core(GlobalId(rank));
    core.SetRank(rank);
    if (rect_device_ != nullptr) core.SetBarrierDevice(rect_device_.get());
  }

  sync::BarrierEnv env;
  env.alloc = &sys_.allocator();
  env.mesh = &sys_.mesh();
  env.stats = &sys_.stats();
  env.participants = num_cores();
  env.cluster_cols = rect.cols;
  // kHYB: the unit's callback table is indexed by global mesh node, so
  // it spans the whole chip and simply expects `participants` arrivals;
  // its home tile is the rect's center, keeping the tenant's barrier
  // traffic inside (or near) its own rect.
  env.hyb_slots = sys_.num_cores();
  env.hyb_home =
      (rect.row0 + rect.rows / 2) * sys_.config().cols + rect.col0 +
      rect.cols / 2;
  env.stat_prefix = prefix_;
  inner_ = sync::MakeBarrier(cfg_.barrier, env);
  barrier_ = std::make_unique<TimedBarrier>(*this);
}

void Tenant::Detach() {
  // No busy() check here: Resize/Teardown gate on it before calling
  // (with a diagnostic), while destruction after a stalled run must
  // still unwind — the stuck coroutine frames die with their cores,
  // never resuming into the freed network.
  for (std::uint32_t rank = 0; rank < num_cores(); ++rank) {
    const CoreId g = GlobalId(rank);
    core::Core& core = sys_.core(g);
    core.SetRank(g);
    core.SetBarrierDevice(sys_.chip_barrier_device());
  }
  barrier_.reset();
  inner_.reset();
  rect_device_.reset();
  gline_.reset();
}

// --- PartitionManager -------------------------------------------------------

PartitionManager::~PartitionManager() = default;

std::string ValidateTenantConfig(const TenantConfig& cfg,
                                 const CmpConfig& chip) {
  if (!ValidTenantName(cfg.name)) {
    return "tenant name '" + cfg.name +
           "' must be non-empty and use only [A-Za-z0-9_-] (it roots stat "
           "and manifest keys)";
  }
  if (cfg.rect.empty()) return "tenant rect must be non-empty";
  if (cfg.rect.row0 + cfg.rect.rows > chip.rows ||
      cfg.rect.col0 + cfg.rect.cols > chip.cols) {
    return "rect " + cfg.rect.ToString() + " exceeds the " +
           std::to_string(chip.rows) + "x" + std::to_string(chip.cols) +
           " mesh";
  }
  if (cfg.max_transmitters == 0) {
    return "tenant transmitter budget must be >= 1";
  }
  if (cfg.barrier == sync::BarrierKind::kGL) {
    // A flat network's SglineH carries cols-1 slave transmitters per
    // row and its SglineV rows-1, so either dimension past budget+1
    // tiles would trip TxPolicy::kReject at construction.
    const std::uint32_t limit = cfg.max_transmitters + 1;
    if (cfg.rect.rows > limit || cfg.rect.cols > limit) {
      return "flat-GL rect " + cfg.rect.ToString() + " exceeds the " +
             std::to_string(cfg.max_transmitters) +
             "-transmitter budget (max " + std::to_string(limit) + "x" +
             std::to_string(limit) + " tiles); use gl-hier";
    }
  }
  return "";
}

namespace {

std::string ValidateAgainst(
    const CmpSystem& sys, const TenantConfig& cfg,
    const std::vector<std::unique_ptr<Tenant>>& tenants,
    const Tenant* ignore) {
  std::string why = ValidateTenantConfig(cfg, sys.config());
  if (!why.empty()) return why;
  for (const auto& t : tenants) {
    if (t.get() != ignore && t->name() == cfg.name) {
      return "duplicate tenant name '" + cfg.name + "'";
    }
  }
  for (const auto& t : tenants) {
    if (t.get() != ignore && t->rect().Overlaps(cfg.rect)) {
      return "rect " + cfg.rect.ToString() + " overlaps live tenant '" +
             t->name() + "' (" + t->rect().ToString() + ")";
    }
  }
  return "";
}

}  // namespace

std::string PartitionManager::ValidateTenant(const TenantConfig& cfg) const {
  return ValidateAgainst(sys_, cfg, tenants_, nullptr);
}

Tenant* PartitionManager::Create(const TenantConfig& cfg, std::string* error) {
  std::string why = ValidateTenant(cfg);
  if (!why.empty()) {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  }
  tenants_.push_back(std::unique_ptr<Tenant>(new Tenant(sys_, cfg)));
  return tenants_.back().get();
}

bool PartitionManager::Resize(const std::string& name, const Rect& rect,
                              std::string* error) {
  Tenant* t = Find(name);
  if (t == nullptr) {
    if (error != nullptr) *error = "no tenant named '" + name + "'";
    return false;
  }
  if (t->busy()) {
    if (error != nullptr) {
      *error = "tenant '" + name +
               "' is mid-episode (a member core is waiting at its barrier); "
               "resize is legal only at barrier-episode boundaries";
    }
    return false;
  }
  TenantConfig next = t->config();
  next.rect = rect;
  std::string why = ValidateAgainst(sys_, next, tenants_, t);
  if (!why.empty()) {
    if (error != nullptr) *error = std::move(why);
    return false;
  }
  t->Detach();
  t->cfg_.rect = rect;
  t->Attach();
  return true;
}

bool PartitionManager::Teardown(const std::string& name, std::string* error) {
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if ((*it)->name() != name) continue;
    if ((*it)->busy()) {
      if (error != nullptr) {
        *error = "tenant '" + name +
                 "' is mid-episode (a member core is waiting at its "
                 "barrier); teardown is legal only at barrier-episode "
                 "boundaries";
      }
      return false;
    }
    tenants_.erase(it);
    return true;
  }
  if (error != nullptr) *error = "no tenant named '" + name + "'";
  return false;
}

Tenant* PartitionManager::Find(const std::string& name) {
  for (auto& t : tenants_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

}  // namespace glb::cmp
