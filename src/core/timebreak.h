// Execution-time accounting in the paper's Figure 6 categories.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace glb::core {

/// Where a core's cycles went. Matches the paper's breakdown: Busy
/// (computation), Read/Write (memory operations), Lock (mutual
/// exclusion), Barrier (the S1+S2+S3 stages of barrier synchronization).
enum class TimeCat : std::uint8_t {
  kBusy = 0,
  kRead,
  kWrite,
  kLock,
  kBarrier,
};
inline constexpr int kNumTimeCats = 5;

inline const char* ToString(TimeCat c) {
  switch (c) {
    case TimeCat::kBusy: return "busy";
    case TimeCat::kRead: return "read";
    case TimeCat::kWrite: return "write";
    case TimeCat::kLock: return "lock";
    case TimeCat::kBarrier: return "barrier";
  }
  return "?";
}

struct TimeBreakdown {
  std::array<Cycle, kNumTimeCats> cycles{};

  Cycle& operator[](TimeCat c) { return cycles[static_cast<std::size_t>(c)]; }
  Cycle operator[](TimeCat c) const { return cycles[static_cast<std::size_t>(c)]; }

  Cycle total() const {
    Cycle t = 0;
    for (Cycle c : cycles) t += c;
    return t;
  }

  TimeBreakdown& operator+=(const TimeBreakdown& o) {
    for (std::size_t i = 0; i < cycles.size(); ++i) cycles[i] += o.cycles[i];
    return *this;
  }
};

}  // namespace glb::core
