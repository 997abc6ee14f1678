// Generic set-associative cache array with true LRU replacement and
// per-line data payload.
//
// The array is policy-free: coherence controllers own the line metadata
// type `Meta` (stable/transient protocol state, sharer vectors, ...) and
// drive allocation/eviction explicitly. Lines carry real data words so
// that simulated loads observe exactly the bytes the coherence protocol
// has made visible — spin-loop visibility then follows invalidations by
// construction.
//
// Storage costs what the run touches. The array makes two allocations,
// both from calloc: the frame array of `Line`s and one data slab of
// num_lines × words_per_line words (frame i owns slab words
// [i·wpl, (i+1)·wpl)). The constructor writes neither, so a frame no
// access touches never becomes resident — calloc hands out fresh
// mmap'd or freshly grown heap memory without writing it, and the
// kernel backs untouched pages with the shared zero page. That rests on
// one layout rule: all-zero bytes are an invalid frame (`valid ==
// false`). An invalid frame's address, stamp, metadata and words are
// unspecified and never read; Install resets all of them, which is
// where `Meta`'s defaults are written. A count of valid frames lets
// ForEachValid skip an array the run never used without walking it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace glb::mem {

struct CacheGeometry {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 64;

  std::uint32_t num_lines() const { return size_bytes / line_bytes; }
  std::uint32_t num_sets() const { return num_lines() / ways; }
  std::uint32_t words_per_line() const { return line_bytes / kWordBytes; }
};

template <typename Meta>
class CacheArray {
 public:
  struct Line {
    bool valid;
    Addr line_addr;
    std::uint64_t lru_stamp;
    Meta meta;
  };
  // calloc'd bytes are a valid array of invalid frames only if a Line
  // needs no constructor or destructor to run.
  static_assert(std::is_trivially_copyable_v<Line> &&
                    std::is_trivially_destructible_v<Line>,
                "cache frames live in calloc'd storage");

  explicit CacheArray(const CacheGeometry& geo)
      : geo_(Checked(geo)),
        lines_(Calloc<Line>(geo.num_lines())),
        words_(Calloc<Word>(std::size_t{geo.num_lines()} * geo.words_per_line())) {}

  const CacheGeometry& geometry() const { return geo_; }

  Addr LineOf(Addr a) const { return a & ~static_cast<Addr>(geo_.line_bytes - 1); }

  /// Returns the line holding `addr`'s cache line, or nullptr on miss.
  /// Does not update LRU (call Touch on use).
  Line* Lookup(Addr addr) {
    const Addr la = LineOf(addr);
    Line* set = SetFor(la);
    for (std::uint32_t w = 0; w < geo_.ways; ++w) {
      if (set[w].valid && set[w].line_addr == la) return &set[w];
    }
    return nullptr;
  }
  const Line* Lookup(Addr addr) const {
    return const_cast<CacheArray*>(this)->Lookup(addr);
  }

  /// Chooses the replacement victim in `addr`'s set: an invalid way if
  /// one exists, else the true-LRU valid way for which `evictable`
  /// returns true. Returns nullptr if every way is pinned.
  template <typename Pred>
  Line* VictimFor(Addr addr, Pred&& evictable) {
    Line* set = SetFor(LineOf(addr));
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < geo_.ways; ++w) {
      Line& l = set[w];
      if (!l.valid) return &l;
      if (!evictable(l)) continue;
      if (victim == nullptr || l.lru_stamp < victim->lru_stamp) victim = &l;
    }
    return victim;
  }
  Line* VictimFor(Addr addr) {
    return VictimFor(addr, [](const Line&) { return true; });
  }

  /// Claims `line` for `addr`'s cache line: validates it, resets
  /// metadata and zeroes data. The caller must already have disposed of
  /// the previous occupant (writeback etc.).
  void Install(Line* line, Addr addr) {
    const Addr la = LineOf(addr);
    GLB_CHECK(SetIndex(la) == SetIndexOfLine(line))
        << "installing line into the wrong set";
    if (!line->valid) ++valid_lines_;
    line->valid = true;
    line->line_addr = la;
    line->meta = Meta{};
    std::fill_n(WordsOf(line), geo_.words_per_line(), Word{0});
    Touch(line);
  }

  void Invalidate(Line* line) {
    if (line->valid) --valid_lines_;
    line->valid = false;
  }

  /// Marks `line` most-recently-used.
  void Touch(Line* line) { line->lru_stamp = ++lru_clock_; }
  /// `times` back-to-back Touch(line) calls.
  void Touch(Line* line, std::uint64_t times) {
    lru_clock_ += times;
    line->lru_stamp = lru_clock_;
  }

  Word ReadWord(const Line* line, Addr a) const {
    return WordsOf(line)[WordIndex(line, a)];
  }
  void WriteWord(Line* line, Addr a, Word v) { WordsOf(line)[WordIndex(line, a)] = v; }

  /// A valid line's data words, in address order.
  std::span<const Word> Words(const Line* line) const {
    GLB_CHECK(line->valid) << "data of an invalid frame";
    return {WordsOf(line), geo_.words_per_line()};
  }
  /// Copies a valid line's data into `out` (a message payload),
  /// reusing its capacity.
  void CopyWords(const Line* line, std::vector<Word>& out) const {
    const auto w = Words(line);
    out.assign(w.begin(), w.end());
  }
  /// Overwrites a valid line's data with a full line image.
  void FillWords(Line* line, std::span<const Word> src) {
    GLB_CHECK(line->valid) << "fill of an invalid frame";
    GLB_CHECK(src.size() == geo_.words_per_line())
        << "line image of " << src.size() << " words, want " << geo_.words_per_line();
    std::copy(src.begin(), src.end(), WordsOf(line));
  }

  /// Iterates all valid lines (for invariant checkers and drains); an
  /// array holding none costs nothing, and the walk stops at the last.
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    std::uint32_t left = valid_lines_;
    for (const Line* l = lines_.get(); left > 0; ++l) {
      if (!l->valid) continue;
      fn(*l);
      --left;
    }
  }

  std::uint32_t SetIndex(Addr line_addr) const {
    return static_cast<std::uint32_t>((line_addr / geo_.line_bytes) &
                                      (geo_.num_sets() - 1));
  }

 private:
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using CallocPtr = std::unique_ptr<T[], FreeDeleter>;

  static const CacheGeometry& Checked(const CacheGeometry& geo) {
    GLB_CHECK(geo.ways > 0 && geo.line_bytes >= kWordBytes) << "bad geometry";
    GLB_CHECK(geo.num_lines() % geo.ways == 0) << "size not divisible into sets";
    GLB_CHECK((geo.num_sets() & (geo.num_sets() - 1)) == 0)
        << "set count must be a power of two, got " << geo.num_sets();
    return geo;
  }

  /// `n` zeroed elements that stay non-resident until first written.
  template <typename T>
  static CallocPtr<T> Calloc(std::size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr && n > 0) throw std::bad_alloc();
    return CallocPtr<T>(static_cast<T*>(p));
  }

  Line* SetFor(Addr line_addr) { return &lines_[SetIndex(line_addr) * geo_.ways]; }
  std::uint32_t SetIndexOfLine(const Line* line) const {
    return FrameOf(line) / geo_.ways;
  }
  std::uint32_t FrameOf(const Line* line) const {
    return static_cast<std::uint32_t>(line - lines_.get());
  }
  Word* WordsOf(const Line* line) const {
    return words_.get() + std::size_t{FrameOf(line)} * geo_.words_per_line();
  }
  std::size_t WordIndex(const Line* line, Addr a) const {
    GLB_CHECK(line->valid && LineOf(a) == line->line_addr)
        << "word access outside the line";
    GLB_CHECK(a % kWordBytes == 0) << "unaligned word access @" << a;
    return (a - line->line_addr) / kWordBytes;
  }

  CacheGeometry geo_;
  CallocPtr<Line> lines_;
  CallocPtr<Word> words_;
  std::uint32_t valid_lines_ = 0;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace glb::mem
