#include "sync/registry.h"

#include "common/check.h"
#include "sync/dissemination_barrier.h"
#include "sync/hybrid_barrier.h"
#include "sync/sw_barrier.h"
#include "sync/tuned_barrier.h"
#include "sync/zoo_barrier.h"

namespace glb::sync {

namespace {

mem::AddrAllocator& Alloc(const BarrierEnv& env) {
  GLB_CHECK(env.alloc != nullptr) << "barrier factory needs env.alloc";
  GLB_CHECK(env.participants > 0) << "barrier without participants";
  return *env.alloc;
}

}  // namespace

std::unique_ptr<Barrier> MakeBarrier(BarrierKind kind, const BarrierEnv& env) {
  // No default: -Wswitch flags a kind without a case at compile time.
  switch (kind) {
    // kGL/kGLH build only the device adapter: the G-line device itself
    // is machine structure (CmpSystem's, or a partition's rect-local
    // one), wired into the cores as their BarrierDevice before the run.
    case BarrierKind::kGL:
    case BarrierKind::kGLH:
      return std::make_unique<GlBarrier>(ToString(kind));
    case BarrierKind::kCSW:
      return std::make_unique<CentralBarrier>(Alloc(env), env.participants);
    case BarrierKind::kDSW:
      return std::make_unique<TreeBarrier>(Alloc(env), env.participants);
    case BarrierKind::kHYB: {
      GLB_CHECK(env.mesh != nullptr) << "kHYB needs env.mesh";
      GLB_CHECK(env.stats != nullptr) << "kHYB needs env.stats";
      GLB_CHECK(env.participants > 0) << "barrier without participants";
      const std::uint32_t slots =
          env.hyb_slots != 0 ? env.hyb_slots : env.participants;
      const std::string prefix = env.stat_prefix.empty()
                                     ? std::string("hyb")
                                     : env.stat_prefix + ".hyb";
      auto b = std::make_unique<HybridBarrier>(*env.mesh, env.hyb_home, slots,
                                               *env.stats, prefix);
      // Partition layout: the unit's table spans every tile (arrivals
      // carry global core ids), but only the rect's cores take part.
      if (env.participants < slots) b->unit().SetExpected(env.participants);
      return b;
    }
    case BarrierKind::kDIS:
      return std::make_unique<DisseminationBarrier>(Alloc(env),
                                                    env.participants);
    case BarrierKind::kRDBL:
      return std::make_unique<RecursiveDoublingBarrier>(Alloc(env),
                                                        env.participants);
    case BarrierKind::kGALOIS:
      return std::make_unique<GaloisFastBarrier>(Alloc(env), env.participants,
                                                 env.cluster_cols);
    case BarrierKind::kTUNED: {
      GLB_CHECK(env.stats != nullptr) << "kTUNED needs env.stats";
      const std::string prefix = env.stat_prefix.empty()
                                     ? std::string("sync.tuned")
                                     : env.stat_prefix + ".tuned";
      return std::make_unique<TunedBarrier>(Alloc(env), env.participants,
                                            env.cluster_cols, *env.stats,
                                            prefix);
    }
  }
  GLB_UNREACHABLE("bad BarrierKind");
}

}  // namespace glb::sync
