#include "mem/backing_store.h"

#include <algorithm>

namespace glb::mem {

std::vector<Word>& BackingStore::LineRef(Addr line_addr) {
  GLB_CHECK(line_addr == LineOf(line_addr)) << "unaligned line address";
  auto [it, inserted] = lines_.try_emplace(line_addr);
  if (inserted) it->second.assign(words_per_line(), 0);
  return it->second;
}

void BackingStore::ReadLine(Addr line_addr, Word* out) const {
  GLB_CHECK(line_addr == (line_addr & ~static_cast<Addr>(line_bytes_ - 1)))
      << "unaligned line address";
  auto it = lines_.find(line_addr);
  if (it == lines_.end()) {
    std::fill_n(out, words_per_line(), Word{0});
  } else {
    std::copy(it->second.begin(), it->second.end(), out);
  }
}

void BackingStore::WriteLine(Addr line_addr, const Word* in) {
  auto& line = LineRef(line_addr);
  std::copy_n(in, words_per_line(), line.begin());
}

Word BackingStore::ReadWord(Addr a) const {
  GLB_CHECK(a % kWordBytes == 0) << "unaligned word read @" << a;
  const Addr line_addr = LineOf(a);
  auto it = lines_.find(line_addr);
  if (it == lines_.end()) return 0;
  return it->second[(a - line_addr) / kWordBytes];
}

void BackingStore::WriteWord(Addr a, Word v) {
  GLB_CHECK(a % kWordBytes == 0) << "unaligned word write @" << a;
  const Addr line_addr = LineOf(a);
  LineRef(line_addr)[(a - line_addr) / kWordBytes] = v;
}

}  // namespace glb::mem
