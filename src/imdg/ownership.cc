#include "imdg/ownership.h"

#include <string>

namespace jet::imdg {

PartitionOwnershipTable::PartitionOwnershipTable(int32_t partition_count)
    : owners_(static_cast<size_t>(partition_count > 0 ? partition_count : 0)),
      owners_size_(static_cast<size_t>(partition_count > 0 ? partition_count : 0)) {}

Status PartitionOwnershipTable::Claim(PartitionId partition, int32_t worker,
                                      int64_t tasklet) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  if (tasklet == kNoTasklet) return InvalidArgumentError("invalid tasklet id");
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != kNoTasklet && owner.tasklet != tasklet) {
    return FailedPreconditionError("partition " + std::to_string(partition) +
                                   " already owned by tasklet " +
                                   std::to_string(owner.tasklet));
  }
  if (owner.tasklet == kNoTasklet) {
    owned_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  owner.tasklet = tasklet;
  owner.worker = worker;
  return Status::OK();
}

Status PartitionOwnershipTable::Transfer(PartitionId partition, int64_t tasklet,
                                         int32_t new_worker) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != tasklet) {
    return FailedPreconditionError("transfer by non-owner of partition " +
                                   std::to_string(partition));
  }
  owner.worker = new_worker;
  transfers_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status PartitionOwnershipTable::Release(PartitionId partition, int64_t tasklet) {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return InvalidArgumentError("partition out of range");
  }
  jet::MutexLock lock(mutex_);
  Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet != tasklet) {
    return FailedPreconditionError("release by non-owner of partition " +
                                   std::to_string(partition));
  }
  owner = Owner{};
  owned_count_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

int64_t PartitionOwnershipTable::ReleaseAllOf(int64_t tasklet) {
  if (tasklet == kNoTasklet) return 0;
  jet::MutexLock lock(mutex_);
  int64_t released = 0;
  for (Owner& owner : owners_) {
    if (owner.tasklet != tasklet) continue;
    owner = Owner{};
    ++released;
  }
  if (released > 0) {
    owned_count_.fetch_sub(released, std::memory_order_acq_rel);
  }
  return released;
}

std::optional<PartitionOwnershipTable::Owner> PartitionOwnershipTable::OwnerOf(
    PartitionId partition) const {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) {
    return std::nullopt;
  }
  jet::MutexLock lock(mutex_);
  const Owner& owner = owners_[static_cast<size_t>(partition)];
  if (owner.tasklet == kNoTasklet) return std::nullopt;
  return owner;
}

bool PartitionOwnershipTable::IsOwnedBy(PartitionId partition, int64_t tasklet) const {
  if (partition < 0 || static_cast<size_t>(partition) >= owners_size_) return false;
  jet::MutexLock lock(mutex_);
  return owners_[static_cast<size_t>(partition)].tasklet == tasklet;
}

}  // namespace jet::imdg
