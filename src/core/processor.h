#ifndef JETSIM_CORE_PROCESSOR_H_
#define JETSIM_CORE_PROCESSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "core/config.h"
#include "core/dag.h"
#include "core/inbox_outbox.h"
#include "core/item.h"
#include "obs/metric_id.h"
#include "obs/metrics_registry.h"

namespace jet::core {

/// Everything a processor instance can see about its execution environment.
/// Owned by the tasklet; valid from Init until the tasklet finishes.
struct ProcessorContext {
  ProcessorMeta meta;
  /// The processor writes all output (and snapshot state) here.
  Outbox* outbox = nullptr;
  /// Engine clock: wall time in the real engine, virtual time in tests.
  const Clock* clock = nullptr;
  /// Job-wide configuration.
  JobConfig config;
  /// Set when the job is cancelled; long-running Complete() loops should
  /// poll it and wind down.
  const std::atomic<bool>* cancelled = nullptr;
  /// Vertex this instance belongs to.
  VertexId vertex_id = 0;
  /// Highest committed snapshot id (§4.5); nullptr without a guarantee.
  const std::atomic<int64_t>* committed_snapshot = nullptr;
  /// Id of the snapshot currently being taken; set by the tasklet before
  /// SaveToSnapshot and valid until OnSnapshotCompleted returns.
  int64_t current_snapshot_id = 0;
  /// Member-wide metrics registry; nullptr when the execution runs without
  /// observability. Processors with interesting internals (the exchange
  /// operators) register instruments in Init() using `metric_tags`.
  obs::MetricsRegistry* metrics = nullptr;
  /// Identity ({vertex, tasklet}) the plan assigned to this instance, ready
  /// to tag instruments with.
  obs::MetricTags metric_tags;

  /// Highest snapshot id the coordinator committed (0 when none/unknown).
  int64_t CommittedSnapshot() const {
    return committed_snapshot == nullptr
               ? 0
               : committed_snapshot->load(std::memory_order_acquire);
  }

  bool IsCancelled() const {
    return cancelled != nullptr && cancelled->load(std::memory_order_relaxed);
  }
};

/// The unit of custom logic attached to a DAG vertex (§3.2 "Jet
/// Processors"). One instance exists per parallel slot; instances never
/// share state and are only ever called from one thread, so implementations
/// need no synchronization.
///
/// Cooperative contract: every method must complete quickly (well under a
/// millisecond of work) and never block. Methods that cannot finish —
/// because the outbox is full or more input is needed — return and are
/// called again later. Processors that must block (3rd-party sources/sinks,
/// §3.1) return false from `IsCooperative()` and run on dedicated threads.
class Processor {
 public:
  virtual ~Processor() = default;

  /// Called once before any other method. `ctx` remains valid for the
  /// processor's lifetime.
  virtual Status Init(ProcessorContext* ctx) {
    ctx_ = ctx;
    return Status::OK();
  }

  /// Consumes items from `inbox` (input edge `ordinal`), emitting results
  /// to the outbox. The processor takes the next item only while
  /// `Outbox::HasRoom()` and emits all of that item's output; items left in
  /// the inbox are re-offered on the next call. Output never waits anywhere
  /// but in the outbox. Source processors (no input edges) keep the default
  /// no-op and do their work in Complete().
  virtual void Process(int ordinal, Inbox* inbox) {
    (void)ordinal;
    (void)inbox;
  }

  /// Called periodically when the tasklet found no input to process (and
  /// at least once between input batches), mirroring Jet's tryProcess():
  /// lets processors do time-driven work — flush buffers, release
  /// transactions whose snapshot committed, emit periodic output. Return
  /// false to be called again before any new input is offered.
  virtual bool TryProcess() { return true; }

  /// A watermark `wm` has been coalesced across all input queues: no data
  /// item with timestamp <= wm will arrive on any input. Return true when
  /// fully handled; returning false re-delivers the same watermark later
  /// (emit one closed window per `Outbox::HasRoom()` check and return
  /// false while more remain). The tasklet forwards the watermark only
  /// after everything emitted here has left the outbox.
  virtual bool TryProcessWatermark(Nanos wm) {
    (void)wm;
    return true;
  }

  /// Input edge `ordinal` is exhausted (all producers sent Done). Return
  /// true when done handling; false to be called again.
  virtual bool CompleteEdge(int ordinal) {
    (void)ordinal;
    return true;
  }

  /// All input edges are exhausted (sources: called immediately). Emit any
  /// final output. Return true when finished — the tasklet then completes —
  /// or false to be called again. Streaming sources return false until
  /// cancelled/deadline.
  virtual bool Complete() { return true; }

  /// Save all state to the outbox's snapshot bucket (`Outbox::EmitState`
  /// takes every entry in one pass). Return true when all state has been
  /// emitted; false to be called again (bounded `OfferToSnapshot` callers).
  /// Called between two input batches, never concurrently with Process;
  /// the barrier follows once the snapshot bucket has drained.
  virtual bool SaveToSnapshot() { return true; }

  /// Restore one state entry captured by SaveToSnapshot. Called before any
  /// Process call, once per entry owned by this instance's partitions.
  virtual Status RestoreFromSnapshot(const StateEntry& entry) {
    (void)entry;
    return InternalError("processor does not support snapshot restore");
  }

  /// Called after the last RestoreFromSnapshot. Return true when finished.
  virtual bool FinishSnapshotRestore() { return true; }

  /// Called after SaveToSnapshot finished and the barrier was forwarded to
  /// all local collectors, before the tasklet acknowledges the snapshot.
  /// Network sender processors use this to put the barrier on the wire.
  /// Return false to be called again (e.g. the wire is saturated).
  virtual bool OnSnapshotCompleted(int64_t snapshot_id) {
    (void)snapshot_id;
    return true;
  }

  /// Whether a tasklet with no input edges should initiate snapshots when
  /// the coordinator requests one. True for real sources; false for
  /// network receivers, which forward barriers arriving on the wire
  /// instead of creating their own.
  virtual bool InitiatesSnapshots() const { return true; }

  /// Cooperative processors run multiplexed on shared worker threads;
  /// non-cooperative ones get a dedicated thread (§3.2).
  virtual bool IsCooperative() const { return true; }

  /// The hosting tasklet is about to migrate to another worker thread
  /// (load rebalancing, round boundary only). Processors holding
  /// single-thread transport roles (e.g. the receiver's wire-buffer
  /// drainer) unbind them here; the scheduler guarantees a happens-before
  /// edge to the new worker's first call.
  virtual void ReleaseWorkerOwnership() {}

  /// The hosting tasklet has just been adopted by worker `worker_index`
  /// (counterpart of ReleaseWorkerOwnership, ordered after it). Processors
  /// holding partition-ownership claims re-register them under the new
  /// worker here, so state ownership migrates together with the tasklet.
  virtual void AdoptWorkerOwnership(int32_t worker_index) { (void)worker_index; }

 protected:
  /// Available after Init.
  ProcessorContext* ctx() const { return ctx_; }

 private:
  ProcessorContext* ctx_ = nullptr;
};

}  // namespace jet::core

#endif  // JETSIM_CORE_PROCESSOR_H_
