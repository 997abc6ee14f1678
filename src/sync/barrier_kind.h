// The barrier-mechanism taxonomy, shared by every layer that selects a
// barrier by name: the harness (experiment specs, CLI parsing), the
// partition manager (per-tenant barrier construction), and
// sync::MakeBarrier (sync/registry.h) that builds the implementations.
//
// This lives in sync/ — not harness/ — because barrier construction
// must not depend on the cmp/harness layers above it.
#pragma once

namespace glb::sync {

enum class BarrierKind {
  kGL,   // the paper's G-line barrier network
  kGLH,  // hierarchical (multi-level) G-line network (§5, beyond 7x7)
  kCSW,  // centralized sense-reversal software barrier
  kDSW,  // binary combining-tree software barrier
  kHYB,  // memory-mapped central hardware unit (Sartori/Kumar-style)
  kDIS,  // dissemination barrier (extension baseline, MCS-style)
  // The software-barrier zoo (sync/zoo_barrier.h): OpenMPI
  // coll_tuned's recursive doubling plus the Galois two-phase design.
  kRDBL,    // recursive doubling (XOR exchange, extras via proxies)
  kGALOIS,  // Galois two-phase in/out, per-mesh-row cluster counting
  kTUNED,   // coll_tuned-style meta-barrier (sync/tuned_barrier.h)
};

inline const char* ToString(BarrierKind k) {
  switch (k) {
    case BarrierKind::kGL: return "GL";
    case BarrierKind::kGLH: return "GLH";
    case BarrierKind::kCSW: return "CSW";
    case BarrierKind::kDSW: return "DSW";
    case BarrierKind::kHYB: return "HYB";
    case BarrierKind::kDIS: return "DIS";
    case BarrierKind::kRDBL: return "RDBL";
    case BarrierKind::kGALOIS: return "GALOIS";
    case BarrierKind::kTUNED: return "TUNED";
  }
  return "?";
}

}  // namespace glb::sync
