#include "src/sim/slab_alloc.h"

#include <cassert>
#include <new>

#include "src/sim/prof_counters.h"

namespace magesim {
namespace {

// Block layout: [16-byte Header][user bytes]. The header keeps the user
// pointer at the 16-byte default new-alignment (coroutine frames rely on it)
// and records the block's origin for routing in Deallocate.
struct Header {
  uint32_t magic;
  int32_t cls;  // size-class index, or -1 for a ::operator new fallback block
  uint64_t pad;
};
static_assert(sizeof(Header) == 16, "header must preserve max alignment");

constexpr uint32_t kMagic = 0x51ab51abu;

struct FreeNode {
  FreeNode* next;
};

struct State {
  FreeNode* free_list[SlabAllocator::kNumClasses] = {};
  // Bump region of the current chunk.
  char* bump = nullptr;
  char* bump_end = nullptr;
  SlabStats stats;
#ifdef MAGESIM_SLAB_DEFAULT_OFF
  bool enabled = false;
#else
  bool enabled = true;
#endif
};

// constinit: initialized before any code runs, so allocations during static
// initialization of other TUs are safe.
constinit State g_state;

// Rounds a gross size (user + header) up to its size class; kNumClasses for
// oversize requests.
size_t ClassFor(size_t gross) {
  return (gross + SlabAllocator::kGranularity - 1) / SlabAllocator::kGranularity - 1;
}

void* CarveFromChunk(State& s, size_t bytes) {
  if (static_cast<size_t>(s.bump_end - s.bump) < bytes) {
    s.bump = static_cast<char*>(::operator new(SlabAllocator::kChunkBytes));
    s.bump_end = s.bump + SlabAllocator::kChunkBytes;
    ++s.stats.chunks;
    s.stats.chunk_bytes += SlabAllocator::kChunkBytes;
    // The tail of the previous chunk (< one max-size block) is abandoned;
    // chunks themselves are never freed (arena).
  }
  void* p = s.bump;
  s.bump += bytes;
  return p;
}

}  // namespace

void* SlabAllocator::Allocate(size_t n) {
  MAGESIM_PROF_SCOPE(slab_alloc);
  State& s = g_state;
  ++s.stats.allocs;
  size_t gross = n + sizeof(Header);
  if (s.enabled && gross <= kMaxSlabBytes) {
    size_t cls = ClassFor(gross);
    Header* h;
    if (FreeNode* f = s.free_list[cls]) {
      s.free_list[cls] = f->next;
      ++s.stats.freelist_hits;
      h = reinterpret_cast<Header*>(f);
    } else {
      h = static_cast<Header*>(CarveFromChunk(s, (cls + 1) * kGranularity));
    }
    h->magic = kMagic;
    h->cls = static_cast<int32_t>(cls);
    return h + 1;
  }
  ++s.stats.heap_allocs;
  Header* h = static_cast<Header*>(::operator new(gross));
  h->magic = kMagic;
  h->cls = -1;
  return h + 1;
}

void SlabAllocator::Deallocate(void* p) {
  MAGESIM_PROF_SCOPE(slab_free);
  if (p == nullptr) return;
  State& s = g_state;
  ++s.stats.frees;
  Header* h = static_cast<Header*>(p) - 1;
  assert(h->magic == kMagic && "freed block not from SlabAllocator");
  if (h->cls < 0) {
    ::operator delete(h);
    return;
  }
  FreeNode* f = reinterpret_cast<FreeNode*>(h);
  f->next = s.free_list[h->cls];
  s.free_list[h->cls] = f;
}

bool SlabAllocator::enabled() { return g_state.enabled; }
void SlabAllocator::set_enabled(bool on) { g_state.enabled = on; }
const SlabStats& SlabAllocator::stats() { return g_state.stats; }
void SlabAllocator::ResetStats() { g_state.stats = SlabStats{}; }

}  // namespace magesim
