#ifndef JETSIM_IMDG_OWNERSHIP_H_
#define JETSIM_IMDG_OWNERSHIP_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "imdg/partition.h"

namespace jet::imdg {

/// Registry of single-writer partition ownership (ROADMAP item 3, after
/// Prasaad et al.: per-core state ownership beats shared locked state).
/// Each partition of a keyed-state domain is owned by at most one
/// {worker, tasklet} pair; the owner — and only the owner — may write the
/// partition's state without taking the domain's locks. The scheduler
/// migrates ownership together with the tasklet: `Transfer` re-registers a
/// claim under the adopting worker at the rebalancer's round boundary.
///
/// The table itself is a cold-path structure (claims change only at job
/// start/end and at tasklet migrations), so a plain mutex suffices; the
/// hot path never consults it — it holds an OwnedPartitionHandle instead.
class PartitionOwnershipTable {
 public:
  /// Sentinel tasklet id meaning "unowned".
  static constexpr int64_t kNoTasklet = -1;

  struct Owner {
    /// Worker thread index currently hosting the owning tasklet; -1 until
    /// the first adoption binds one.
    int32_t worker = -1;
    /// Opaque owner id (the processor instance's global index).
    int64_t tasklet = kNoTasklet;
  };

  explicit PartitionOwnershipTable(int32_t partition_count);

  PartitionOwnershipTable(const PartitionOwnershipTable&) = delete;
  PartitionOwnershipTable& operator=(const PartitionOwnershipTable&) = delete;

  /// Claims `partition` for `tasklet` (hosted on `worker`, -1 if not yet
  /// bound). Fails with kFailedPrecondition if a different tasklet owns it.
  /// Re-claiming by the same tasklet only updates the worker.
  Status Claim(PartitionId partition, int32_t worker, int64_t tasklet);

  /// Moves `tasklet`'s claim on `partition` to `new_worker` (the adoption
  /// half of the scheduler's migration handoff). Fails with
  /// kFailedPrecondition if `tasklet` does not own the partition.
  Status Transfer(PartitionId partition, int64_t tasklet, int32_t new_worker);

  /// Releases `tasklet`'s claim on `partition`. Fails if not the owner.
  Status Release(PartitionId partition, int64_t tasklet);

  /// Releases every claim held by `tasklet`; returns how many were held.
  int64_t ReleaseAllOf(int64_t tasklet);

  /// Current owner of `partition`, or nullopt when unowned.
  std::optional<Owner> OwnerOf(PartitionId partition) const;

  /// True iff `tasklet` currently owns `partition`.
  bool IsOwnedBy(PartitionId partition, int64_t tasklet) const;

  /// Number of currently-claimed partitions (`grid.owned_partitions`).
  int64_t owned_count() const {
    return owned_count_.load(std::memory_order_acquire);
  }

  /// Cumulative successful Transfer calls (`scheduler.ownership_migrations`).
  int64_t transfers() const { return transfers_.load(std::memory_order_acquire); }

  int32_t partition_count() const {
    return static_cast<int32_t>(owners_size_);
  }

 private:
  mutable jet::Mutex mutex_;
  std::vector<Owner> owners_ JET_GUARDED_BY(mutex_);
  size_t owners_size_;  // fixed at construction; readable without the mutex
  std::atomic<int64_t> owned_count_{0};
  std::atomic<int64_t> transfers_{0};
};

}  // namespace jet::imdg

#endif  // JETSIM_IMDG_OWNERSHIP_H_
