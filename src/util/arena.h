// Slab/arena allocation for the simulation hot substrate.
//
// Million-thread runs die on per-object malloc: a heap allocation per
// event, thread record, currency and ticket costs a lock-free-list walk,
// 16+ bytes of allocator metadata, and — worse — scatters hot records
// across the address space. The two containers here fix that with the
// classic `entry_pool` idiom (a fixed slab carved into records threaded on
// an intrusive free list):
//
//   * SlabPool<T>      — typed object pool. New/Delete run constructors and
//     destructors in place inside large slabs; freed records go on an
//     intrusive free list and are reused LIFO (hot in cache). Addresses are
//     stable for the object's lifetime; memory is returned to the OS only
//     when the pool dies.
//   * ChunkedVector<T> — an index-addressed arena: a vector that grows in
//     fixed-size chunks so elements never move (unlike std::vector) and
//     growth never copies. Records addressed by dense integer ids (the
//     kernel's and the lottery scheduler's thread records, event-node
//     indices) live here. DESIGN.md §4d says why a dispatch reaches them
//     by id rather than through pointers stored in other records.
//
// Neither container is thread-safe; the simulator is single-threaded by
// design (determinism contract, DESIGN.md). Neither uses unordered
// containers, wall clocks, or floats, so both are safe in scheduling paths.

#ifndef SRC_UTIL_ARENA_H_
#define SRC_UTIL_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace lottery {
namespace util {

// Typed slab pool. kSlabObjects is the number of records per slab; slabs
// are allocated on demand and never freed until the pool is destroyed.
// The caller owns object lifetimes: every New must be matched by a Delete
// (or the pool must outlive any need to run destructors — the pool itself
// only releases raw storage).
template <typename T, size_t kSlabObjects = 1024>
class SlabPool {
  static_assert(kSlabObjects > 0, "slab must hold at least one object");

 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_ == nullptr) {
      Grow();
    }
    Node* node = free_;
    free_ = node->next;
    T* object = ::new (static_cast<void*>(node->storage))
        T(std::forward<Args>(args)...);
    ++live_;
    return object;
  }

  void Delete(T* object) {
    object->~T();
    Node* node = std::launder(reinterpret_cast<Node*>(object));
    node->next = free_;
    free_ = node;
    --live_;
  }

  size_t live() const { return live_; }
  size_t capacity() const { return slabs_.size() * kSlabObjects; }
  size_t slabs() const { return slabs_.size(); }

 private:
  union Node {
    Node* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  void Grow() {
    slabs_.push_back(std::make_unique<Node[]>(kSlabObjects));
    Node* slab = slabs_.back().get();
    // Thread the fresh slab onto the free list in reverse so allocation
    // order walks the slab front to back (friendly to the prefetcher).
    for (size_t i = kSlabObjects; i > 0; --i) {
      slab[i - 1].next = free_;
      free_ = &slab[i - 1];
    }
  }

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_ = nullptr;
  size_t live_ = 0;
};

// Chunked growable array with stable addresses: operator[] is two loads
// (chunk pointer, then element), EmplaceBack never moves existing elements.
// Elements are destroyed only when the container is destroyed or cleared.
template <typename T, size_t kChunkSize = 4096>
class ChunkedVector {
  static_assert(kChunkSize > 0, "chunk must hold at least one element");

 public:
  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;
  ~ChunkedVector() { clear(); }

  template <typename... Args>
  T& EmplaceBack(Args&&... args) {
    const size_t chunk = size_ / kChunkSize;
    const size_t offset = size_ % kChunkSize;
    if (chunk == chunks_.size()) {
      // Uninitialized: elements are built in place one at a time, so
      // zero-filling the chunk would only fault in pages nothing uses yet.
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    T* slot = ::new (static_cast<void*>(Slot(chunk, offset)))
        T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  T& operator[](size_t i) {
    return *std::launder(
        reinterpret_cast<T*>(Slot(i / kChunkSize, i % kChunkSize)));
  }
  const T& operator[](size_t i) const {
    return *std::launder(
        reinterpret_cast<const T*>(Slot(i / kChunkSize, i % kChunkSize)));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (size_t i = size_; i > 0; --i) {
      (*this)[i - 1].~T();
    }
    size_ = 0;
    chunks_.clear();
  }

 private:
  struct Chunk {
    alignas(T) unsigned char bytes[sizeof(T) * kChunkSize];
  };

  unsigned char* Slot(size_t chunk, size_t offset) {
    return chunks_[chunk]->bytes + offset * sizeof(T);
  }
  const unsigned char* Slot(size_t chunk, size_t offset) const {
    return chunks_[chunk]->bytes + offset * sizeof(T);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace util
}  // namespace lottery

#endif  // SRC_UTIL_ARENA_H_
