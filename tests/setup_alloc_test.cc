// Gates machine set-up on an exact allocation count: building a chip
// must cost a bounded number of heap allocations per core, however large
// its caches are. Each cache array is one frame array plus one data
// slab from calloc (outside operator new, four per core), so the count
// below is what the rest of the machine allocates: controllers, cores,
// stat handles, the mesh and the G-line hierarchy. A per-line heap
// payload would put thousands per core back. Global operator new is
// replaced in this binary to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cmp/cmp_system.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al), n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace glb::cmp {
namespace {

TEST(SetupAlloc, Build256CoreHierChipUnder64AllocationsPerCore) {
  CmpConfig cfg = CmpConfig::WithCores(256);
  cfg.hier.enabled = true;
  const std::uint64_t before = g_allocs.load();
  CmpSystem sys(cfg);
  const std::uint64_t allocs = g_allocs.load() - before;
  ASSERT_EQ(sys.num_cores(), 256u);
  EXPECT_LT(allocs, 64u * 256u)
      << allocs << " allocations building a 256-core chip ("
      << allocs / 256 << " per core)";
}

}  // namespace
}  // namespace glb::cmp
