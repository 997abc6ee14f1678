#include "sync/dissemination_barrier.h"

#include "common/check.h"
#include "core/timebreak.h"

namespace glb::sync {

namespace {
std::uint32_t CeilLog2(std::uint32_t n) {
  std::uint32_t r = 0;
  while ((1u << r) < n) ++r;
  return r;
}
}  // namespace

DisseminationBarrier::DisseminationBarrier(mem::AddrAllocator& alloc,
                                           std::uint32_t num_cores)
    : num_cores_(num_cores),
      rounds_(CeilLog2(num_cores)),
      line_bytes_(alloc.line_bytes()),
      parity_(num_cores, 0),
      sense_(num_cores, 1) {
  GLB_CHECK(num_cores > 0) << "barrier without participants";
  // One line per flag: [parity][round][core]. The stride is the
  // allocator's actual line size — a fixed 64 would put two flags on
  // one line whenever lines are larger (false sharing between a
  // writer and an unrelated spinner).
  const std::uint64_t count =
      std::uint64_t{2} * std::max(rounds_, 1u) * num_cores_;
  flags_ = alloc.AllocLines(count * line_bytes_);
}

Addr DisseminationBarrier::FlagAddr(std::uint32_t parity, std::uint32_t round,
                                    CoreId core) const {
  const std::uint64_t idx =
      (static_cast<std::uint64_t>(parity) * std::max(rounds_, 1u) + round) *
          num_cores_ +
      core;
  return flags_ + idx * line_bytes_;
}

core::Task DisseminationBarrier::Wait(core::Core& core) {
  core::CategoryScope scope(core, core::TimeCat::kBarrier);
  core.NoteBarrier();
  const CoreId me = core.rank();
  const std::uint32_t parity = parity_[me];
  const Word sense = sense_[me];
  // Advance the per-core episode state (registers; no memory traffic).
  if (parity == 1) sense_[me] = sense ^ 1;
  parity_[me] ^= 1;

  for (std::uint32_t k = 0; k < rounds_; ++k) {
    const CoreId partner =
        static_cast<CoreId>((me + (1u << k)) % num_cores_);
    co_await core.Store(FlagAddr(parity, k, partner), sense);
    co_await core.SpinUntil(FlagAddr(parity, k, me),
                            [sense](Word f) { return f == sense; });
  }
}

}  // namespace glb::sync
