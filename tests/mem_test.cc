// Tests for the functional memory, cache arrays and address allocator.
#include <gtest/gtest.h>

#include <vector>

#include "mem/addr_allocator.h"
#include "mem/backing_store.h"
#include "mem/cache_array.h"

namespace glb::mem {
namespace {

TEST(BackingStore, ZeroFillByDefault) {
  BackingStore m(64);
  EXPECT_EQ(m.ReadWord(0x1000), 0u);
  Word line[8];
  m.ReadLine(0x2000, line);
  for (Word w : line) EXPECT_EQ(w, 0u);
  EXPECT_EQ(m.resident_lines(), 0u);
}

TEST(BackingStore, WordReadWriteRoundTrip) {
  BackingStore m(64);
  m.WriteWord(0x1008, 0xdeadbeef);
  EXPECT_EQ(m.ReadWord(0x1008), 0xdeadbeefu);
  EXPECT_EQ(m.ReadWord(0x1000), 0u) << "neighbouring word unaffected";
}

TEST(BackingStore, LineReadWriteRoundTrip) {
  BackingStore m(64);
  Word in[8], out[8];
  for (int i = 0; i < 8; ++i) in[i] = static_cast<Word>(i * 11 + 1);
  m.WriteLine(0x40, in);
  m.ReadLine(0x40, out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(BackingStore, WordAndLineViewsAgree) {
  BackingStore m(64);
  m.WriteWord(0x80, 7);
  m.WriteWord(0x88, 9);
  Word line[8];
  m.ReadLine(0x80, line);
  EXPECT_EQ(line[0], 7u);
  EXPECT_EQ(line[1], 9u);
}

TEST(BackingStore, LineOfMasksOffset) {
  BackingStore m(64);
  EXPECT_EQ(m.LineOf(0x1234), 0x1200u);
  EXPECT_EQ(m.LineOf(0x1240), 0x1240u);
}

TEST(BackingStoreDeath, UnalignedAccessesAbort) {
  BackingStore m(64);
  EXPECT_DEATH(m.ReadWord(0x1001), "unaligned");
  EXPECT_DEATH(m.WriteWord(0x1004, 1), "unaligned");
}

struct TestMeta {
  int state = 0;
};
using Array = CacheArray<TestMeta>;

TEST(CacheArray, GeometryDerivation) {
  CacheGeometry g{32 * 1024, 4, 64};
  EXPECT_EQ(g.num_lines(), 512u);
  EXPECT_EQ(g.num_sets(), 128u);
}

TEST(CacheArray, MissThenInstallHits) {
  Array a(CacheGeometry{1024, 2, 64});
  EXPECT_EQ(a.Lookup(0x100), nullptr);
  auto* v = a.VictimFor(0x100);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->valid);
  a.Install(v, 0x104);  // any address within the line
  auto* l = a.Lookup(0x138);  // same 64B line as 0x104? 0x100..0x13f yes
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->line_addr, 0x100u);
}

TEST(CacheArray, DataReadWrite) {
  Array a(CacheGeometry{1024, 2, 64});
  auto* v = a.VictimFor(0x200);
  a.Install(v, 0x200);
  a.WriteWord(v, 0x208, 77);
  EXPECT_EQ(a.ReadWord(v, 0x208), 77u);
  EXPECT_EQ(a.ReadWord(v, 0x200), 0u) << "Install zeroes the line";
}

TEST(CacheArray, LruEvictsLeastRecentlyTouched) {
  // 2-way: fill both ways of one set, touch the first, then the victim
  // must be the second.
  Array a(CacheGeometry{1024, 2, 64});
  const std::uint32_t set_span = 64 * a.geometry().num_sets();
  const Addr addr_a = 0x0, addr_b = addr_a + set_span;  // same set
  auto* la = a.VictimFor(addr_a);
  a.Install(la, addr_a);
  auto* lb = a.VictimFor(addr_b);
  a.Install(lb, addr_b);
  ASSERT_NE(a.Lookup(addr_a), nullptr);
  ASSERT_NE(a.Lookup(addr_b), nullptr);
  a.Touch(a.Lookup(addr_a));
  auto* victim = a.VictimFor(addr_a + 2 * set_span);
  EXPECT_EQ(victim->line_addr, addr_b) << "LRU way must be chosen";
}

TEST(CacheArray, VictimPredicatePinsLines) {
  Array a(CacheGeometry{128, 2, 64});  // one set, two ways
  auto* l0 = a.VictimFor(0x0);
  a.Install(l0, 0x0);
  auto* l1 = a.VictimFor(0x40);
  a.Install(l1, 0x40);
  // Pin line 0x0: victim must be 0x40.
  auto* v = a.VictimFor(0x80, [](const Array::Line& l) { return l.line_addr != 0x0; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->line_addr, 0x40u);
  // Pin both: no victim.
  EXPECT_EQ(a.VictimFor(0x80, [](const Array::Line&) { return false; }), nullptr);
}

TEST(CacheArray, InvalidateFreesWay) {
  Array a(CacheGeometry{128, 2, 64});
  auto* l = a.VictimFor(0x0);
  a.Install(l, 0x0);
  a.Invalidate(a.Lookup(0x0));
  EXPECT_EQ(a.Lookup(0x0), nullptr);
  auto* v = a.VictimFor(0x0);
  EXPECT_FALSE(v->valid) << "invalidated way is reused first";
}

TEST(CacheArray, SetIndexingSeparatesSets) {
  Array a(CacheGeometry{1024, 2, 64});  // 8 sets
  // Fill 3 lines mapping to different sets; none evicts another.
  a.Install(a.VictimFor(0x000), 0x000);
  a.Install(a.VictimFor(0x040), 0x040);
  a.Install(a.VictimFor(0x080), 0x080);
  EXPECT_NE(a.Lookup(0x000), nullptr);
  EXPECT_NE(a.Lookup(0x040), nullptr);
  EXPECT_NE(a.Lookup(0x080), nullptr);
}

TEST(CacheArray, ForEachValidVisitsExactly) {
  Array a(CacheGeometry{1024, 2, 64});
  a.Install(a.VictimFor(0x000), 0x000);
  a.Install(a.VictimFor(0x140), 0x140);
  int n = 0;
  a.ForEachValid([&](const Array::Line&) { ++n; });
  EXPECT_EQ(n, 2);
}

TEST(CacheArray, ForEachValidVisitsNothingWhenNoLineIsValid) {
  Array a(CacheGeometry{1024, 2, 64});
  const auto visits = [&a]() {
    int n = 0;
    a.ForEachValid([&](const Array::Line& l) {
      EXPECT_TRUE(l.valid);
      ++n;
    });
    return n;
  };
  EXPECT_EQ(visits(), 0) << "a fresh array holds no valid line";

  const Addr addrs[] = {0x000, 0x140, 0x200, 0x3c0};
  for (const Addr la : addrs) a.Install(a.VictimFor(la), la);
  EXPECT_EQ(visits(), 4);
  for (const Addr la : addrs) a.Invalidate(a.Lookup(la));
  EXPECT_EQ(visits(), 0) << "every line was invalidated again";

  // Invalidating a frame twice must not disturb the count.
  Array::Line* l = a.VictimFor(0x40);
  a.Invalidate(l);
  a.Install(l, 0x40);
  EXPECT_EQ(visits(), 1);
}

TEST(CacheArray, InstallZeroesWordsTheLastOccupantWrote) {
  Array a(CacheGeometry{128, 2, 64});  // one set, two ways
  Array::Line* l = a.VictimFor(0x0);
  a.Install(l, 0x0);
  for (Addr w = 0; w < 8; ++w) a.WriteWord(l, w * kWordBytes, ~Word{0} - w);
  a.Invalidate(l);
  Array::Line* again = a.VictimFor(0x80);
  ASSERT_EQ(again, l) << "the freed frame is reused first";
  a.Install(again, 0x80);
  for (Addr w = 0; w < 8; ++w) {
    EXPECT_EQ(a.ReadWord(again, 0x80 + w * kWordBytes), 0u) << "word " << w;
  }
}

// Every word of every frame is written, then read back: each frame's
// words stay inside its own stretch of the shared data slab, so no
// write spills into a neighbouring frame (same set or next set).
TEST(CacheArray, NeighbouringFramesKeepTheirWords) {
  for (const std::uint32_t line_bytes : {32u, 128u}) {
    SCOPED_TRACE(line_bytes);
    Array a(CacheGeometry{8 * line_bytes, 2, line_bytes});  // 4 sets x 2 ways
    const Addr wpl = line_bytes / kWordBytes;
    const auto value = [](Addr word_addr) { return Word{0xa5a5000000000000} + word_addr; };
    std::vector<Array::Line*> frames;
    for (Addr la = 0; la < 8 * line_bytes; la += line_bytes) {
      Array::Line* l = a.VictimFor(la);
      ASSERT_NE(l, nullptr);
      a.Install(l, la);
      frames.push_back(l);
    }
    for (Array::Line* l : frames) {
      for (Addr w = 0; w < wpl; ++w) {
        const Addr wa = l->line_addr + w * kWordBytes;
        a.WriteWord(l, wa, value(wa));
      }
    }
    std::vector<Word> copy;  // one buffer, refilled per line
    for (const Array::Line* l : frames) {
      a.CopyWords(l, copy);
      ASSERT_EQ(copy.size(), wpl);
      for (Addr w = 0; w < wpl; ++w) {
        const Addr wa = l->line_addr + w * kWordBytes;
        EXPECT_EQ(a.ReadWord(l, wa), value(wa)) << "word @" << wa;
        EXPECT_EQ(copy[w], value(wa)) << "copied word @" << wa;
      }
    }
  }
}

TEST(CacheArray, FillWordsReplacesTheWholeLine) {
  Array a(CacheGeometry{1024, 2, 64});
  Array::Line* l = a.VictimFor(0x100);
  a.Install(l, 0x100);
  const std::vector<Word> image = {1, 2, 3, 4, 5, 6, 7, 8};
  a.FillWords(l, image);
  std::vector<Word> copy(3, 99);  // a stale buffer is replaced, not appended to
  a.CopyWords(l, copy);
  EXPECT_EQ(copy, image);
  EXPECT_EQ(a.ReadWord(l, 0x138), 8u);
  EXPECT_DEATH(a.FillWords(l, std::vector<Word>(4, 0)), "line image of 4 words");
}

TEST(AddrAllocator, LineAlignedAndDisjoint) {
  AddrAllocator alloc(64);
  const Addr a = alloc.AllocVar();
  const Addr b = alloc.AllocVar();
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 64);
}

TEST(AddrAllocator, WordArraysRoundUp) {
  AddrAllocator alloc(64);
  const Addr a = alloc.AllocWords(3);   // 24 bytes -> one line
  const Addr b = alloc.AllocWords(9);   // 72 bytes -> two lines
  const Addr c = alloc.AllocVar();
  EXPECT_EQ(b - a, 64u);
  EXPECT_EQ(c - b, 128u);
}

}  // namespace
}  // namespace glb::mem
