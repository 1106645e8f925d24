#ifndef JETSIM_CORE_INBOX_OUTBOX_H_
#define JETSIM_CORE_INBOX_OUTBOX_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/debug_check.h"
#include "common/serde.h"
#include "core/item.h"

namespace jet::core {

/// Batch of input items handed to a processor. The owning tasklet refills
/// the inbox from one inbound queue at a time (§3.2: "the tasklet refills
/// the processor's inbox with more input").
///
/// The processor consumes from the front with Peek/Poll; items it leaves in
/// place are re-offered on the next Process call (used when the outbox
/// fills up mid-batch).
///
/// Backed by a flat vector with a consume cursor rather than a deque:
/// refills append in one contiguous run, bulk consumers (the network
/// sender) move whole spans out with DrainTo, and the storage is reused
/// across batches instead of deque's chunked allocation.
///
/// Not thread-safe: the inbox belongs to exactly one tasklet, and every
/// mutating call must come from that tasklet's worker thread (checked under
/// JETSIM_DEBUG_CHECKS).
class Inbox {
 public:
  /// True when no items remain.
  bool Empty() const { return pos_ >= items_.size(); }

  /// Number of items remaining.
  size_t Size() const { return items_.size() - pos_; }

  /// Returns the front item without removing it; nullptr when empty.
  const Item* Peek() const { return Empty() ? nullptr : &items_[pos_]; }

  /// Removes and returns the front item. Requires !Empty().
  Item Poll() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (Poll)");
    JET_DCHECK(!Empty());
    Item item = std::move(items_[pos_]);
    ++pos_;
    MaybeReset();
    return item;
  }

  /// Removes the front item. Requires !Empty().
  void RemoveFront() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (RemoveFront)");
    JET_DCHECK(!Empty());
    ++pos_;
    MaybeReset();
  }

  /// Adds an item at the back (called by the owning tasklet only).
  void Add(Item item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (Add)");
    Compact();
    items_.push_back(std::move(item));
  }

  /// Moves up to `limit` items from the front into `out` (appended).
  /// Returns the number moved. This is the batched consume path: one
  /// cursor bump instead of per-item pops.
  size_t DrainTo(std::vector<Item>* out, size_t limit) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (DrainTo)");
    const size_t n = std::min(limit, Size());
    for (size_t i = 0; i < n; ++i) out->push_back(std::move(items_[pos_ + i]));
    pos_ += n;
    MaybeReset();
    return n;
  }

  /// Drops all items.
  void Clear() {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Inbox owner (Clear)");
    items_.clear();
    pos_ = 0;
  }

  /// Unbinds the owner guard so the inbox can move to another worker
  /// thread (tasklet migration). The scheduler guarantees a happens-before
  /// edge between the old owner's last access and the new owner's first.
  void ReleaseOwner() { owner_guard_.Release(); }

 private:
  void MaybeReset() {
    if (pos_ >= items_.size()) {
      items_.clear();
      pos_ = 0;
    }
  }

  // Drops the consumed prefix before appending, so the buffer never grows
  // with already-consumed slots (refills normally happen on an empty inbox,
  // making this a no-op).
  void Compact() {
    if (pos_ == 0) return;
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }

  std::vector<Item> items_;
  size_t pos_ = 0;
  debug::ThreadOwnershipGuard owner_guard_;
};

/// One entry of processor state emitted during snapshotting.
struct StateEntry {
  uint64_t key_hash = 0;
  Bytes key;
  Bytes value;
};

/// Buffer for a processor's output (§3.2: "each processor includes ... an
/// outbox of output records to be dispatched downstream").
///
/// The outbox has one bucket per output edge plus a bucket for snapshot
/// state, and it is the only place a processor's output waits: the tasklet
/// forwards no watermark, barrier or Done until every bucket is empty, so
/// control items always stay behind the data emitted before them.
///
/// Processors check `HasRoom()` before each unit of work (one input item,
/// one closed window) and `Emit` all of that unit's output, so a bucket
/// overshoots its capacity by at most one unit. The bounded `Offer*`
/// wrappers suit emitters that produce one item at a time (sources): they
/// return false when the bucket is full, telling the processor to yield.
///
/// Not thread-safe: offers and drains must all come from the owning
/// tasklet's worker thread (checked under JETSIM_DEBUG_CHECKS).
class Outbox {
 public:
  /// Creates an outbox with `edge_count` edge buckets of capacity
  /// `bucket_capacity` items each.
  explicit Outbox(int edge_count, size_t bucket_capacity = 128)
      : buckets_(static_cast<size_t>(edge_count)), capacity_(bucket_capacity) {}

  /// True when every edge bucket is below capacity: the processor may
  /// start another unit of work.
  bool HasRoom() const {
    for (const auto& bucket : buckets_) {
      if (bucket.size() >= capacity_) return false;
    }
    return true;
  }

  /// Emits an item to every output edge, regardless of capacity. The item
  /// is *moved* into the last bucket and refcount-copied into the first
  /// n-1.
  void Emit(Item&& item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (Emit)");
    const size_t n = buckets_.size();
    for (size_t i = 0; i + 1 < n; ++i) buckets_[i].push_back(item);
    if (n > 0) buckets_[n - 1].push_back(std::move(item));
  }

  /// Emits a state entry to the snapshot bucket, regardless of capacity.
  void EmitState(StateEntry entry) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (EmitState)");
    snapshot_bucket_.push_back(std::move(entry));
  }

  /// Offers an item to one output edge. Returns false (and does not
  /// consume) if that bucket is full.
  bool Offer(int ordinal, Item item) {
    JET_DCHECK_SINGLE_THREAD(owner_guard_, "Outbox owner (Offer)");
    JET_DCHECK(ordinal >= 0 && ordinal < edge_count());
    auto& bucket = buckets_[static_cast<size_t>(ordinal)];
    if (bucket.size() >= capacity_) return false;
    bucket.push_back(std::move(item));
    return true;
  }

  /// Offers an item to every output edge; returns false (and consumes
  /// nothing) unless all buckets have room. The caller's item is consumed
  /// (left empty) on success, untouched on failure.
  bool OfferToAll(Item&& item) {
    if (!HasRoom()) return false;
    Emit(std::move(item));
    return true;
  }

  /// Lvalue overload: copies into every bucket (broadcast callers that
  /// must keep the item). Prefer the rvalue overload on hot paths.
  bool OfferToAll(const Item& item) {
    Item copy = item;
    return OfferToAll(std::move(copy));
  }

  /// Offers a state entry to the snapshot bucket. Returns false if full.
  bool OfferToSnapshot(StateEntry entry) {
    if (snapshot_bucket_.size() >= capacity_) return false;
    EmitState(std::move(entry));
    return true;
  }

  /// Bucket capacity (the tasklet also paces snapshot writes by it).
  size_t capacity() const { return capacity_; }

  /// Number of output edges.
  int edge_count() const { return static_cast<int>(buckets_.size()); }

  /// True when all buckets (including snapshot) are empty.
  bool Empty() const {
    if (!snapshot_bucket_.empty()) return false;
    for (const auto& bucket : buckets_) {
      if (!bucket.empty()) return false;
    }
    return true;
  }

  /// The tasklet-side view of one edge bucket. Flat vector so the tasklet
  /// drains it as a contiguous batch (prefix-erase after delivery).
  std::vector<Item>& bucket(int ordinal) { return buckets_[static_cast<size_t>(ordinal)]; }

  /// The tasklet-side view of the snapshot bucket.
  std::deque<StateEntry>& snapshot_bucket() { return snapshot_bucket_; }

  /// Unbinds the owner guard for tasklet migration (see Inbox::ReleaseOwner).
  void ReleaseOwner() { owner_guard_.Release(); }

 private:
  std::vector<std::vector<Item>> buckets_;
  std::deque<StateEntry> snapshot_bucket_;
  size_t capacity_;
  debug::ThreadOwnershipGuard owner_guard_;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_INBOX_OUTBOX_H_
