#include "workloads/livermore.h"

#include <cmath>

#include "common/check.h"

namespace glb::workloads {

namespace {
/// Initial x/v/z element values (arbitrary but fixed; bounded so the
/// kernels stay in a numerically tame range).
double XInit(std::uint64_t k) { return 0.5 + 0.001 * static_cast<double>(k % 97); }
double VInit(std::uint64_t k) { return 0.001 * static_cast<double>(k % 31); }
double ZInit(std::uint64_t k) { return 1.0 - 0.002 * static_cast<double>(k % 53); }
}  // namespace

// ===========================================================================
// Kernel 2 — ICCG
// ===========================================================================

Kernel2::Kernel2(std::uint32_t n, std::uint32_t iterations)
    : n_(n), iterations_(iterations) {}

std::string Kernel2::ValidateConfig(std::uint32_t) const {
  if (n_ < 4 || (n_ & (n_ - 1)) != 0) {
    return "--k2-n " + std::to_string(n_) + " is not a power of two of at least 4";
  }
  return "";
}

std::string Kernel2::input_desc() const {
  return std::to_string(n_) + " elements, " + std::to_string(iterations_) +
         " iterations";
}

std::uint32_t Kernel2::levels() const {
  std::uint32_t lv = 0;
  for (std::uint32_t ii = n_; ii > 0; ii /= 2) ++lv;
  return lv;
}

void Kernel2::Init(cmp::CmpSystem& sys) {
  GLB_CHECK(ValidateConfig(0).empty()) << ValidateConfig(0);
  num_cores_ = Participants(sys);
  const std::uint64_t len = 2 * static_cast<std::uint64_t>(n_) + 4;
  x_ = sys.allocator().AllocWords(len);
  v_ = sys.allocator().AllocWords(len);
  std::vector<double> x(len), v(len);
  for (std::uint64_t k = 0; k < len; ++k) {
    x[k] = XInit(k);
    v[k] = VInit(k);
    sys.memory().WriteWord(x_ + k * kWordBytes, AsWord(x[k]));
    sys.memory().WriteWord(v_ + k * kWordBytes, AsWord(v[k]));
  }
  // Sequential reference. Most elements are idempotent across outer
  // iterations (they read a strictly earlier region), but the last
  // non-empty level's element reads x[ipntp] — itself — so the
  // reference must run the same number of iterations as the machine.
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    std::uint64_t ii = n_, ipntp = 0;
    do {
      const std::uint64_t ipnt = ipntp;
      ipntp += ii;
      ii /= 2;
      std::uint64_t i = ipntp - 1;
      for (std::uint64_t k = ipnt + 1; k < ipntp; k += 2) {
        ++i;
        x[i] = x[k] - v[k] * x[k - 1] - v[k + 1] * x[k + 1];
      }
    } while (ii > 0);
  }
  ref_x_ = std::move(x);
}

core::Task Kernel2::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    std::uint64_t ii = n_, ipntp = 0;
    do {
      const std::uint64_t ipnt = ipntp;
      ipntp += ii;
      ii /= 2;
      // Elements of this level: t in [0, m), k = ipnt+1+2t, i = ipntp+t.
      // The last element (t = m-1) reads x[ipntp], which the first
      // element (t = 0) writes — the level's one true dependency. Both
      // are pinned to core 0 in program order (t=0 first, t=m-1 last)
      // so the sequential semantics are preserved deterministically;
      // all other elements are independent and block-partitioned.
      const std::uint64_t m = (ipntp - ipnt) / 2;
      auto element = [&](std::uint64_t t) -> core::Task {
        const std::uint64_t k = ipnt + 1 + 2 * t;
        const std::uint64_t i = ipntp + t;
        const double xk1 = AsDouble(co_await core.Load(x_ + (k - 1) * kWordBytes));
        const double xk = AsDouble(co_await core.Load(x_ + k * kWordBytes));
        const double xk2 = AsDouble(co_await core.Load(x_ + (k + 1) * kWordBytes));
        const double vk = AsDouble(co_await core.Load(v_ + k * kWordBytes));
        const double vk2 = AsDouble(co_await core.Load(v_ + (k + 1) * kWordBytes));
        co_await core.Compute(FlopCycles(4));
        co_await core.Store(x_ + i * kWordBytes, AsWord(xk - vk * xk1 - vk2 * xk2));
      };
      if (m > 0 && id == 0) co_await element(0);
      if (m > 2) {
        const Range r = BlockPartition(m - 2, num_cores_, id);
        for (std::uint64_t t = 1 + r.begin; t < 1 + r.end; ++t) {
          co_await element(t);
        }
      }
      if (m > 1 && id == 0) co_await element(m - 1);
      co_await barrier.Wait(core);
    } while (ii > 0);
  }
}

std::string Kernel2::Validate(cmp::CmpSystem& sys) {
  for (std::uint64_t k = 0; k < ref_x_.size(); ++k) {
    const double got = AsDouble(sys.memory().ReadWord(x_ + k * kWordBytes));
    if (got != ref_x_[k]) {
      return "x[" + std::to_string(k) + "] = " + std::to_string(got) +
             ", expected " + std::to_string(ref_x_[k]);
    }
  }
  return "";
}

// ===========================================================================
// Kernel 3 — inner product
// ===========================================================================

Kernel3::Kernel3(std::uint32_t n, std::uint32_t iterations)
    : n_(n), iterations_(iterations) {}

std::string Kernel3::ValidateConfig(std::uint32_t) const {
  if (n_ == 0) return "--k3-n 0 is an empty inner product (need at least 1 element)";
  return "";
}

std::string Kernel3::input_desc() const {
  return std::to_string(n_) + " elements, " + std::to_string(iterations_) +
         " iterations";
}

Addr Kernel3::PartialSlot(std::uint32_t parity, CoreId c) const {
  // Word-packed (not line-padded): the reduction then touches only
  // ceil(P/8) lines instead of P, keeping the combine step off the
  // critical path — at the price of some false sharing on the stores,
  // exactly like period-correct 2010-era codes.
  return partials_ + (static_cast<Addr>(parity) * num_cores_ + c) * kWordBytes;
}

void Kernel3::Init(cmp::CmpSystem& sys) {
  GLB_CHECK(ValidateConfig(0).empty()) << ValidateConfig(0);
  num_cores_ = Participants(sys);
  x_ = sys.allocator().AllocWords(n_);
  z_ = sys.allocator().AllocWords(n_);
  partials_ = sys.allocator().AllocWords(std::uint64_t{2} * num_cores_);
  q_ = sys.allocator().AllocVar();
  std::vector<double> x(n_), z(n_);
  for (std::uint64_t k = 0; k < n_; ++k) {
    x[k] = XInit(k);
    z[k] = ZInit(k);
    sys.memory().WriteWord(x_ + k * kWordBytes, AsWord(x[k]));
    sys.memory().WriteWord(z_ + k * kWordBytes, AsWord(z[k]));
  }
  // Reference with the same blocked summation order.
  double q = 0.0;
  for (CoreId c = 0; c < num_cores_; ++c) {
    const Range r = BlockPartition(n_, num_cores_, c);
    double partial = 0.0;
    for (std::uint64_t k = r.begin; k < r.end; ++k) partial += x[k] * z[k];
    q += partial;
  }
  ref_q_ = q;
}

core::Task Kernel3::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  const Range r = BlockPartition(n_, num_cores_, id);
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    const std::uint32_t parity = it % 2;
    double partial = 0.0;
    for (std::uint64_t k = r.begin; k < r.end; ++k) {
      const double xk = AsDouble(co_await core.Load(x_ + k * kWordBytes));
      const double zk = AsDouble(co_await core.Load(z_ + k * kWordBytes));
      partial += xk * zk;
    }
    co_await core.Compute(FlopCycles(2 * r.size()));
    co_await core.Store(PartialSlot(parity, id), AsWord(partial));
    co_await barrier.Wait(core);
    if (id == 0) {
      // Combine while the others run ahead (double buffering makes the
      // slots safe until they come round to this parity again).
      double q = 0.0;
      for (CoreId c = 0; c < num_cores_; ++c) {
        q += AsDouble(co_await core.Load(PartialSlot(parity, c)));
      }
      co_await core.Compute(FlopCycles(num_cores_));
      co_await core.Store(q_, AsWord(q));
    }
  }
}

std::string Kernel3::Validate(cmp::CmpSystem& sys) {
  const double got = AsDouble(sys.memory().ReadWord(q_));
  if (got != ref_q_) {
    return "q = " + std::to_string(got) + ", expected " + std::to_string(ref_q_);
  }
  return "";
}

// ===========================================================================
// Kernel 6 — general linear recurrence
// ===========================================================================

Kernel6::Kernel6(std::uint32_t n, std::uint32_t iterations)
    : n_(n), iterations_(iterations) {}

std::string Kernel6::ValidateConfig(std::uint32_t) const {
  if (n_ < 2) {
    return "--k6-n " + std::to_string(n_) +
           " is too short a recurrence (need at least 2 elements)";
  }
  return "";
}

std::string Kernel6::input_desc() const {
  return std::to_string(n_) + " elements, " + std::to_string(iterations_) +
         " iterations";
}

double Kernel6::BVal(std::uint32_t k, std::uint32_t i) {
  return 1e-4 * static_cast<double>((k + 1) * (i + 1) % 7);
}

Addr Kernel6::WSlot(CoreId c, std::uint32_t i) const {
  // Private w arrays padded to whole lines per core.
  const std::uint64_t stride =
      (static_cast<std::uint64_t>(n_) * kWordBytes + 63) / 64 * 64;
  return w_private_ + c * stride + static_cast<Addr>(i) * kWordBytes;
}

Addr Kernel6::PartialSlot(std::uint32_t parity, CoreId c) const {
  // Word-packed like Kernel3: every core re-reads all P partials each
  // recurrence step, so packing them into ceil(P/8) lines is the
  // difference between ~P and ~P/8 misses per step and core.
  return partials_ + (static_cast<Addr>(parity) * num_cores_ + c) * kWordBytes;
}

void Kernel6::Init(cmp::CmpSystem& sys) {
  GLB_CHECK(ValidateConfig(0).empty()) << ValidateConfig(0);
  num_cores_ = Participants(sys);
  b_ = sys.allocator().AllocWords(static_cast<std::uint64_t>(n_) * n_);
  const std::uint64_t stride =
      (static_cast<std::uint64_t>(n_) * kWordBytes + 63) / 64 * 64;
  w_private_ = sys.allocator().AllocLines(stride * num_cores_);
  partials_ = sys.allocator().AllocWords(std::uint64_t{2} * num_cores_);

  for (std::uint32_t i = 0; i < n_; ++i) {
    for (std::uint32_t k = 0; k < i; ++k) {  // only k < i is ever read
      sys.memory().WriteWord(b_ + (static_cast<Addr>(k) * n_ + i) * kWordBytes,
                             AsWord(BVal(k, i)));
    }
  }
  for (CoreId c = 0; c < num_cores_; ++c) {
    sys.memory().WriteWord(WSlot(c, 0), AsWord(0.01));
  }

  // Reference with the same partitioned reduction order.
  ref_w_.assign(n_, 0.0);
  ref_w_[0] = 0.01;
  for (std::uint32_t i = 1; i < n_; ++i) {
    double total = 0.01;
    for (CoreId c = 0; c < num_cores_; ++c) {
      const Range r = BlockPartition(i, num_cores_, c);
      double partial = 0.0;
      for (std::uint64_t k = r.begin; k < r.end; ++k) {
        partial += BVal(static_cast<std::uint32_t>(k), i) * ref_w_[i - k - 1];
      }
      total += partial;
    }
    ref_w_[i] = total;
  }
}

core::Task Kernel6::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  for (std::uint32_t it = 0; it < iterations_; ++it) {
    for (std::uint32_t i = 1; i < n_; ++i) {
      const Range r = BlockPartition(i, num_cores_, id);
      double partial = 0.0;
      for (std::uint64_t k = r.begin; k < r.end; ++k) {
        const double b = AsDouble(co_await core.Load(
            b_ + (static_cast<Addr>(k) * n_ + i) * kWordBytes));
        const double w = AsDouble(
            co_await core.Load(WSlot(id, static_cast<std::uint32_t>(i - k - 1))));
        partial += b * w;
      }
      co_await core.Compute(FlopCycles(2 * r.size()));
      co_await core.Store(PartialSlot(i % 2, id), AsWord(partial));
      co_await barrier.Wait(core);
      // Every core applies the completed element to its private copy.
      double total = 0.01;
      for (CoreId c = 0; c < num_cores_; ++c) {
        total += AsDouble(co_await core.Load(PartialSlot(i % 2, c)));
      }
      co_await core.Compute(FlopCycles(num_cores_));
      co_await core.Store(WSlot(id, i), AsWord(total));
    }
  }
}

std::string Kernel6::Validate(cmp::CmpSystem& sys) {
  for (CoreId c = 0; c < num_cores_; ++c) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const double got = AsDouble(sys.memory().ReadWord(WSlot(c, i)));
      if (got != ref_w_[i]) {
        return "core " + std::to_string(c) + " w[" + std::to_string(i) +
               "] = " + std::to_string(got) + ", expected " +
               std::to_string(ref_w_[i]);
      }
    }
  }
  return "";
}

}  // namespace glb::workloads
