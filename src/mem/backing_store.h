// Functional DRAM model.
//
// Holds the architectural memory image as sparse cache-line-sized
// blocks. Timing (the 400-cycle access penalty of Table 1) is charged by
// the directory controller; this class is purely functional so that
// workloads of any footprint can run without preallocating gigabytes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace glb::mem {

class BackingStore {
 public:
  explicit BackingStore(std::uint32_t line_bytes) : line_bytes_(line_bytes) {
    GLB_CHECK(line_bytes >= kWordBytes && line_bytes % kWordBytes == 0)
        << "line size must be a multiple of the word size";
  }

  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint32_t words_per_line() const {
    return line_bytes_ / static_cast<std::uint32_t>(kWordBytes);
  }

  Addr LineOf(Addr a) const { return a & ~static_cast<Addr>(line_bytes_ - 1); }

  /// Copies the line containing `line_addr` into `out` (zero-fill for
  /// untouched memory). `out` must hold words_per_line() words.
  void ReadLine(Addr line_addr, Word* out) const;

  /// Overwrites the backing line from `in`.
  void WriteLine(Addr line_addr, const Word* in);

  /// Direct word access, used for workload initialization and for
  /// oracle checks in tests — not by the timing path.
  Word ReadWord(Addr a) const;
  void WriteWord(Addr a, Word v);

  std::size_t resident_lines() const { return lines_.size(); }

 private:
  std::vector<Word>& LineRef(Addr line_addr);

  std::uint32_t line_bytes_;
  std::unordered_map<Addr, std::vector<Word>> lines_;
};

}  // namespace glb::mem
