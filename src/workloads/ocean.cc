#include "workloads/ocean.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/timebreak.h"

namespace glb::workloads {

Ocean::Ocean() : Ocean(Config()) {}

namespace {
/// Residuals are accumulated as scaled integers so that the global sum
/// is associative and the result is bit-deterministic regardless of the
/// order in which cores take the lock.
std::uint64_t ScaleResidual(double r) {
  return static_cast<std::uint64_t>(r * 1e9);
}
}  // namespace

double Ocean::InitVal(std::uint32_t r, std::uint32_t c, std::uint32_t grid) {
  // A smooth double-gyre-like initial stream function, fixed at the
  // boundary (boundary cells are never updated).
  const double x = static_cast<double>(c) / static_cast<double>(grid - 1);
  const double y = static_cast<double>(r) / static_cast<double>(grid - 1);
  return 0.25 * (x - x * x) * (y - y * y) * (1.0 + 0.5 * x);
}

std::string Ocean::ValidateConfig(std::uint32_t cores) const {
  if (cfg_.grid < 4 || cfg_.grid - 2 < cores) {
    return "--ocean-grid " + std::to_string(cfg_.grid) + " is too small for " +
           std::to_string(cores) + " cores (need at least " +
           std::to_string(std::max(cores + 2, 4u)) +
           ": one interior row per core plus 2 boundary rows)";
  }
  return "";
}

void Ocean::Init(cmp::CmpSystem& sys) {
  num_cores_ = Participants(sys);
  GLB_CHECK(cfg_.grid >= 4) << "grid too small";
  GLB_CHECK(cfg_.grid - 2 >= num_cores_) << "fewer interior rows than cores";
  grid_ = sys.allocator().AllocWords(static_cast<std::uint64_t>(cfg_.grid) * cfg_.grid);
  residual_ = sys.allocator().AllocVar();
  lock_ = std::make_unique<sync::SpinLock>(sys.allocator());

  ref_grid_.resize(static_cast<std::size_t>(cfg_.grid) * cfg_.grid);
  for (std::uint32_t r = 0; r < cfg_.grid; ++r) {
    for (std::uint32_t c = 0; c < cfg_.grid; ++c) {
      const double v = InitVal(r, c, cfg_.grid);
      ref_grid_[static_cast<std::size_t>(r) * cfg_.grid + c] = v;
      sys.memory().WriteWord(Cell(r, c), AsWord(v));
    }
  }

  // Sequential reference with the identical red/black phase structure.
  std::uint64_t ref_res_int = 0;
  auto at = [&](std::uint32_t r, std::uint32_t c) -> double& {
    return ref_grid_[static_cast<std::size_t>(r) * cfg_.grid + c];
  };
  for (std::uint32_t it = 0; it < cfg_.iterations; ++it) {
    std::vector<double> core_partials(num_cores_, 0.0);
    for (std::uint32_t parity = 0; parity < 2; ++parity) {
      for (CoreId cid = 0; cid < num_cores_; ++cid) {
        const Range rows = BlockPartition(cfg_.grid - 2, num_cores_, cid);
        for (std::uint64_t ri = rows.begin; ri < rows.end; ++ri) {
          const auto r = static_cast<std::uint32_t>(ri + 1);
          for (std::uint32_t c = 1; c + 1 < cfg_.grid; ++c) {
            if ((r + c) % 2 != parity) continue;
            const double old = at(r, c);
            const double nb = at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1);
            const double next = (1.0 - cfg_.omega) * old + cfg_.omega * 0.25 * nb;
            at(r, c) = next;
            const double d = next - old;
            core_partials[cid] += d * d;
          }
        }
      }
    }
    for (CoreId cid = 0; cid < num_cores_; ++cid) {
      ref_res_int += ScaleResidual(core_partials[cid]);
    }
  }
  ref_residual_ = static_cast<double>(ref_res_int);
}

core::Task Ocean::HalfSweep(core::Core& core, Range rows, std::uint32_t parity,
                            double* local_residual) {
  for (std::uint64_t ri = rows.begin; ri < rows.end; ++ri) {
    const auto r = static_cast<std::uint32_t>(ri + 1);
    for (std::uint32_t c = 1; c + 1 < cfg_.grid; ++c) {
      if ((r + c) % 2 != parity) continue;
      const double old = AsDouble(co_await core.Load(Cell(r, c)));
      const double up = AsDouble(co_await core.Load(Cell(r - 1, c)));
      const double dn = AsDouble(co_await core.Load(Cell(r + 1, c)));
      const double lf = AsDouble(co_await core.Load(Cell(r, c - 1)));
      const double rt = AsDouble(co_await core.Load(Cell(r, c + 1)));
      const double next =
          (1.0 - cfg_.omega) * old + cfg_.omega * 0.25 * (up + dn + lf + rt);
      co_await core.Compute(FlopCycles(8));
      co_await core.Store(Cell(r, c), AsWord(next));
      const double d = next - old;
      *local_residual += d * d;
    }
  }
}

core::Task Ocean::Body(core::Core& core, CoreId id, sync::Barrier& barrier) {
  const Range rows = BlockPartition(cfg_.grid - 2, num_cores_, id);
  co_await barrier.Wait(core);
  for (std::uint32_t it = 0; it < cfg_.iterations; ++it) {
    double local_residual = 0.0;
    co_await HalfSweep(core, rows, 0, &local_residual);  // red
    co_await barrier.Wait(core);
    co_await HalfSweep(core, rows, 1, &local_residual);  // black
    co_await barrier.Wait(core);
    // Lock-protected global residual accumulation (the Figure-6 Lock
    // component), as integer so the sum order cannot change the result.
    co_await lock_->Acquire(core);
    const Word cur = co_await core.Load(residual_);
    co_await core.Store(residual_, cur + ScaleResidual(local_residual));
    co_await lock_->Release(core);
    co_await barrier.Wait(core);
  }
}

std::string Ocean::Validate(cmp::CmpSystem& sys) {
  for (std::uint32_t r = 0; r < cfg_.grid; ++r) {
    for (std::uint32_t c = 0; c < cfg_.grid; ++c) {
      const double got = AsDouble(sys.memory().ReadWord(Cell(r, c)));
      const double want = ref_grid_[static_cast<std::size_t>(r) * cfg_.grid + c];
      if (got != want) {
        return "cell(" + std::to_string(r) + "," + std::to_string(c) +
               ") = " + std::to_string(got) + ", expected " + std::to_string(want);
      }
    }
  }
  const auto got_res = static_cast<double>(sys.memory().ReadWord(residual_));
  if (got_res != ref_residual_) {
    return "residual " + std::to_string(got_res) + ", expected " +
           std::to_string(ref_residual_);
  }
  return "";
}

}  // namespace glb::workloads
