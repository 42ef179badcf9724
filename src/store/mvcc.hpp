#pragma once
// Epoch-based reclamation for the Tsdb's MVCC read path.
//
// The store publishes immutable snapshot objects (per-series views, open-head
// chunks, per-shard series indexes) through single atomic pointers.  The
// ingest thread replaces a snapshot by allocating a successor, publishing the
// new pointer, and *retiring* the old object here; a retired object is freed
// only once no reader can still hold a pointer to it.  Readers pin the domain
// for the duration of one query (RAII ReadGuard); pinning is one CAS on a
// cache-line-padded slot, and the ingest fast path never blocks on readers —
// reclamation is deferred, not waited for.
//
// Memory-order contract (the one place it is spelled out; tsdb.hpp refers
// here).  Four access classes participate:
//
//   (R1) reader pin:       slot.compare_exchange(0 -> E, seq_cst) where E is
//                          a seq_cst load of the domain epoch
//   (R2) reader deref:     seq_cst load of a published snapshot pointer
//   (W1) writer publish:   seq_cst store of the replacement pointer
//   (W2) writer retire:    tag old object with the current epoch Er, then
//                          fetch_add(1, seq_cst) on the domain epoch
//   (W3) writer scan:      seq_cst loads of every reader slot; an object
//                          tagged Er is freed only if every non-zero slot
//                          holds an epoch > Er
//
// Safety argument: suppose a pinned reader can still reach an object O
// retired at epoch Er — then its pointer load (R2) read the old pointer,
// i.e. R2 precedes W1 in the seq_cst total order S.  Its pin R1 precedes R2
// (program order, both seq_cst), and its epoch load E precedes R1, so
// E <= Er (the domain epoch before W2's increment).  W1 precedes the scan W3
// in S, hence R1 < W3 in S: the scan must observe the slot occupied with
// E <= Er and keeps O.  Every class is seq_cst because the reasoning is a
// cycle-forbidding argument over S — release/acquire alone admits the
// store-buffering interleaving where the reader misses the new pointer *and*
// the writer misses the pin.  (No standalone fences: ThreadSanitizer models
// seq_cst atomics precisely but not fence-only synchronization.)
//
// Deferred-free visibility (what TSan checks): a reader unpins with
// slot.store(0, release); a later pin CASes the slot again, continuing the
// release sequence.  The scan load that finally observes the slot free (or
// re-pinned at a higher epoch) synchronizes-with that release store, so every
// read the guard covered happens-before the delete.
//
// Writer side is single-threaded by contract: retire()/try_reclaim()/
// drain_retired() must only be called by the one mutating thread (the Tsdb
// ingest thread).  Readers are unrestricted in number but at most
// kReaderSlots may be *concurrently pinned*; excess pinners spin-yield until
// a slot frees (queries are short; slots are not held across blocking work).
//
// Both halves of that contract are machine-checked, not just prose:
//   * the single-writer half rides the EMON_OWNER_THREAD annotations on the
//     Tsdb/RollupEngine mutating surfaces (util/thread_annotations.hpp) —
//     tools/emon_lint.py rejects owner-only calls from unsanctioned
//     functions, and requires every retire() to follow the successor's
//     publish store in the same function (publish-before-retire);
//   * the reader half is the lint's guard-escape rule: values read through a
//     ReadGuard (snapshot pointers, SeriesView, read_guard() results) must
//     not outlive the guard's lexical scope — no stashing into members,
//     globals or out-params.  See README.md "Static analysis".

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace emon::store {

class EpochDomain {
 public:
  /// Concurrently pinned readers supported without spinning.  64 padded
  /// slots = 4 KiB; the scan on the (rare) retire path walks all of them.
  static constexpr std::size_t kReaderSlots = 64;

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;
  ~EpochDomain() { drain_retired(); }

  /// RAII reader pin (move-only).  Hold one across every dereference of a
  /// published snapshot; dropping it is the reader's only obligation.
  class [[nodiscard]] ReadGuard {
   public:
    ReadGuard() = default;
    explicit ReadGuard(const EpochDomain& domain) : domain_(&domain) {
      slot_ = domain.pin_slot();
    }
    ReadGuard(ReadGuard&& other) noexcept
        : domain_(other.domain_), slot_(other.slot_) {
      other.domain_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      if (this != &other) {
        release();
        domain_ = other.domain_;
        slot_ = other.slot_;
        other.domain_ = nullptr;
      }
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { release(); }

    [[nodiscard]] bool pinned() const noexcept { return domain_ != nullptr; }

   private:
    void release() noexcept {
      if (domain_ != nullptr) {
        domain_->slots_[slot_].epoch.store(0, std::memory_order_release);
        domain_ = nullptr;
      }
    }
    const EpochDomain* domain_ = nullptr;
    std::size_t slot_ = 0;
  };

  [[nodiscard]] ReadGuard pin() const { return ReadGuard(*this); }

  /// Writer only.  Hands `object` to the domain for deferred deletion and
  /// advances the epoch.  The object must already be unreachable from every
  /// published pointer (publish the successor *before* retiring).
  template <typename T>
  void retire(const T* object) {
    if (object == nullptr) {
      return;
    }
    retired_.push_back(Retired{
        const_cast<void*>(static_cast<const void*>(object)),
        [](void* p) { delete static_cast<T*>(p); },
        epoch_.load(std::memory_order_relaxed)});
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    try_reclaim();
  }

  /// Writer only.  Frees every retired object no pinned reader can reach
  /// (see the scan rule above).  Called by retire(); callable directly to
  /// drain after a burst.
  void try_reclaim() {
    if (retired_.empty()) {
      return;
    }
    std::uint64_t min_active = UINT64_MAX;
    for (const Slot& slot : slots_) {
      const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < min_active) {
        min_active = e;
      }
    }
    std::size_t kept = 0;
    for (Retired& r : retired_) {
      if (r.epoch < min_active) {
        r.del(r.object);
      } else {
        retired_[kept++] = r;
      }
    }
    retired_.resize(kept);
  }

  /// Writer/destructor only, with no reader pinned: frees everything.
  void drain_retired() {
    for (Retired& r : retired_) {
      r.del(r.object);
    }
    retired_.clear();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};
  };
  struct Retired {
    void* object;
    void (*del)(void*);
    std::uint64_t epoch;
  };

  [[nodiscard]] std::size_t pin_slot() const {
    for (;;) {
      for (std::size_t i = 0; i < kReaderSlots; ++i) {
        if (slots_[i].epoch.load(std::memory_order_relaxed) != 0) {
          continue;  // occupied; skip the CAS
        }
        const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
        std::uint64_t expected = 0;
        if (slots_[i].epoch.compare_exchange_strong(
                expected, e, std::memory_order_seq_cst)) {
          return i;
        }
      }
      std::this_thread::yield();  // > kReaderSlots concurrent pinners
    }
  }

  mutable std::array<Slot, kReaderSlots> slots_{};
  /// Starts at 1 so slot value 0 unambiguously means "free".
  std::atomic<std::uint64_t> epoch_{1};
  /// Writer-private; no lock needed under the single-writer contract.
  std::vector<Retired> retired_;
};

using ReadGuard = EpochDomain::ReadGuard;

}  // namespace emon::store
