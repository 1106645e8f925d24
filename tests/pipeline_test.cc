#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "core/job.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "pipeline/pipeline.h"

namespace jet::pipeline {
namespace {

using core::GeneratorSourceP;
using core::WindowDef;
using core::WindowResult;

GeneratorSourceP<int64_t>::Options FastIntOptions(int64_t count) {
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e9;
  opt.duration = count;
  opt.watermark_interval = 1;
  opt.start_time = 0;
  return opt;
}

GeneratorSourceP<int64_t>::GenFn IntGen() {
  return [](int64_t seq) {
    return std::make_pair(seq, HashU64(static_cast<uint64_t>(seq)));
  };
}

Status RunPipeline(Pipeline* p, const PlanOptions& options = {}) {
  static ManualClock clock(int64_t{1} << 60);
  auto dag = p->ToDag(options);
  JET_RETURN_IF_ERROR(dag.status());
  core::JobParams params;
  params.dag = &*dag;
  params.cooperative_threads = 2;
  params.clock = &clock;
  auto job = core::Job::Create(params);
  JET_RETURN_IF_ERROR(job.status());
  JET_RETURN_IF_ERROR((*job)->Start());
  return (*job)->Join();
}

TEST(PipelineTest, MapFilterChain) {
  Pipeline p;
  auto counter = p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(10'000))
                     .Map<int64_t>("triple", [](const int64_t& v) { return v * 3; })
                     .Filter("even", [](const int64_t& v) { return v % 2 == 0; })
                     .WriteToCountSink("count");
  ASSERT_TRUE(RunPipeline(&p).ok());
  EXPECT_EQ(counter->load(), 5'000);
}

TEST(PipelineTest, FusionDoesNotChangeResults) {
  for (bool fusion : {true, false}) {
    Pipeline p;
    auto collector =
        p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(4'000))
            .Map<int64_t>("inc", [](const int64_t& v) { return v + 1; })
            .Map<int64_t>("dec", [](const int64_t& v) { return v - 1; })
            .Filter("mod3", [](const int64_t& v) { return v % 3 == 0; })
            .CollectTo("sink");
    PlanOptions options;
    options.enable_fusion = fusion;
    ASSERT_TRUE(RunPipeline(&p, options).ok());
    auto values = collector->Snapshot();
    std::set<int64_t> unique(values.begin(), values.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(4'000 / 3 + 1)) << "fusion=" << fusion;
  }
}

TEST(PipelineTest, FusionReducesVertexCount) {
  Pipeline p;
  p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(10))
      .Map<int64_t>("a", [](const int64_t& v) { return v; })
      .Map<int64_t>("b", [](const int64_t& v) { return v; })
      .Map<int64_t>("c", [](const int64_t& v) { return v; })
      .WriteToCountSink("count");

  PlanOptions fused;
  auto dag_fused = p.ToDag(fused);
  ASSERT_TRUE(dag_fused.ok());
  // source + fused(a+b+c) + sink = 3.
  EXPECT_EQ(dag_fused->vertices().size(), 3u);

  PlanOptions unfused;
  unfused.enable_fusion = false;
  auto dag_unfused = p.ToDag(unfused);
  ASSERT_TRUE(dag_unfused.ok());
  // source + a + b + c + sink = 5.
  EXPECT_EQ(dag_unfused->vertices().size(), 5u);
}

TEST(PipelineTest, FlatMapProducesMultiple) {
  Pipeline p;
  auto counter =
      p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(1'000))
          .FlatMap<int64_t>("dup",
                            [](const int64_t& v, std::vector<int64_t>* out) {
                              out->push_back(v);
                              out->push_back(-v);
                            })
          .WriteToCountSink("count");
  ASSERT_TRUE(RunPipeline(&p).ok());
  EXPECT_EQ(counter->load(), 2'000);
}

TEST(PipelineTest, WindowedAggregateCountsEverything) {
  constexpr int64_t kCount = 20'000;
  Pipeline p;
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e6;  // 1 event per us
  opt.duration = kCount * 1000;
  opt.watermark_interval = 100 * 1000;
  opt.start_time = 0;
  auto results =
      p.ReadFrom<int64_t>("ints", IntGen(), opt)
          .GroupingKey([](const int64_t& v) { return static_cast<uint64_t>(v % 10); })
          .Window(WindowDef::Tumbling(kNanosPerMilli))
          .Aggregate<int64_t, int64_t>("count", core::CountingAggregate<int64_t>())
          .CollectTo("sink");
  ASSERT_TRUE(RunPipeline(&p).ok());
  int64_t total = 0;
  for (const auto& r : results->Snapshot()) total += r.value;
  EXPECT_EQ(total, kCount);
}

TEST(PipelineTest, HashJoinEnrichesStream) {
  Pipeline p;
  std::vector<std::pair<int64_t, uint64_t>> dim;
  for (int64_t i = 0; i < 10; ++i) dim.push_back({i * 100, HashU64(static_cast<uint64_t>(i))});
  auto build = p.ReadFromList<int64_t>("dim", dim);

  auto collector =
      p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(1'000))
          .HashJoin<int64_t, int64_t>(
              "join", build,
              [](const int64_t& b) { return static_cast<uint64_t>(b / 100); },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 10); },
              [](const int64_t& v, const std::vector<int64_t>& matches,
                 std::vector<int64_t>* out) {
                for (int64_t m : matches) out->push_back(v + m);
              })
          .CollectTo("sink");
  ASSERT_TRUE(RunPipeline(&p).ok());
  auto values = collector->Snapshot();
  ASSERT_EQ(values.size(), 1'000u);
  // Every value v joins with exactly one build record (v % 10) * 100.
  std::multiset<int64_t> got(values.begin(), values.end());
  std::multiset<int64_t> expected;
  for (int64_t v = 0; v < 1'000; ++v) expected.insert(v + (v % 10) * 100);
  EXPECT_EQ(got, expected);
}

TEST(PipelineTest, WindowJoinMatchesWithinWindow) {
  constexpr int64_t kCount = 5'000;
  Pipeline p;
  GeneratorSourceP<int64_t>::Options opt;
  opt.events_per_second = 1e6;
  opt.duration = kCount * 1000;
  opt.watermark_interval = 100 * 1000;
  opt.start_time = 0;

  auto left = p.ReadFrom<int64_t>("left", IntGen(), opt);
  auto right = p.ReadFrom<int64_t>("right", IntGen(), opt);
  auto counter =
      left.WindowJoin<int64_t, int64_t>(
              "wjoin", right,
              [](const int64_t& v) { return static_cast<uint64_t>(v % 100); },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 100); },
              [](const int64_t& l, const int64_t& r) { return l + r; },
              /*window_size=*/kNanosPerMilli)
          .WriteToCountSink("count");
  ASSERT_TRUE(RunPipeline(&p).ok());
  // Each 1ms window has 1000 events per side over 100 keys => 10 per key
  // per side => 100 pairs per key per window => 10000 pairs per window,
  // 5 windows => 50000 pairs total (both sources aligned at start 0).
  EXPECT_EQ(counter->load(), 50'000);
}

TEST(PipelineTest, MapRekeyRoutesByNewKey) {
  Pipeline p;
  auto results =
      p.ReadFrom<int64_t>("ints", IntGen(), FastIntOptions(6'000))
          .MapRekey<int64_t>(
              "rekey", [](const int64_t& v) { return v; },
              [](const int64_t& v) { return static_cast<uint64_t>(v % 7); })
          .GroupingKey([](const int64_t& v) { return static_cast<uint64_t>(v % 7); })
          .Window(WindowDef::Tumbling(kNanosPerMilli))
          .Aggregate<int64_t, int64_t>("count", core::CountingAggregate<int64_t>())
          .CollectTo("sink");
  ASSERT_TRUE(RunPipeline(&p).ok());
  int64_t total = 0;
  std::set<uint64_t> keys;
  for (const auto& r : results->Snapshot()) {
    total += r.value;
    keys.insert(r.key);
  }
  EXPECT_EQ(total, 6'000);
  EXPECT_EQ(keys.size(), 7u);
}

TEST(PipelineTest, EmptyPipelineFailsValidation) {
  Pipeline p;
  EXPECT_FALSE(p.ToDag().ok());
}

// ---------------------------------------------------------------------------
// A fan-out larger than the outbox keeps every item ahead of the control
// item that follows it: a watermark, the end of the stream, or a snapshot
// barrier.
// ---------------------------------------------------------------------------

// Fan-out instruction: `copies` items carrying `key`.
struct Burst {
  uint64_t key = 0;
  int32_t copies = 0;
};

constexpr Nanos kBurstWindow = 10 * kNanosPerMilli;
constexpr uint64_t kBurstKey = 7;
constexpr int32_t kFanOut = 200;  // more than the default outbox_capacity (128)

// Emits a fixed list of items, data and watermarks, in order. With
// `hold_at` >= 0 it stops before that index until the job is cancelled.
// The cursor is its snapshot state, so a restored instance resumes right
// after the items it had emitted before the barrier.
class ScriptSourceP final : public core::Processor {
 public:
  ScriptSourceP(std::vector<core::Item> script, int64_t hold_at)
      : script_(std::move(script)), hold_at_(hold_at) {}

  bool Complete() override {
    for (; next_ < static_cast<int64_t>(script_.size()); ++next_) {
      if (next_ == hold_at_) return false;
      if (!ctx()->outbox->OfferToAll(script_[static_cast<size_t>(next_)])) return false;
    }
    return true;
  }

  bool SaveToSnapshot() override {
    core::StateEntry entry;
    entry.key_hash = static_cast<uint64_t>(ctx()->meta.global_index);
    BytesWriter kw;
    kw.WriteVarI64(ctx()->meta.global_index);
    entry.key = kw.Take();
    BytesWriter vw;
    vw.WriteVarI64(next_);
    entry.value = vw.Take();
    return ctx()->outbox->OfferToSnapshot(std::move(entry));
  }

  Status RestoreFromSnapshot(const core::StateEntry& entry) override {
    BytesReader vr(entry.value);
    return vr.ReadVarI64(&next_);
  }

 private:
  std::vector<core::Item> script_;
  int64_t hold_at_;
  int64_t next_ = 0;
};

enum class Behind { kWatermark, kEndOfStream, kBarrier };

struct BurstCase {
  Behind behind;
  bool fusion;
};

void PrintTo(const BurstCase& c, std::ostream* os) {
  const char* behind[] = {"Watermark", "EndOfStream", "Barrier"};
  *os << behind[static_cast<int>(c.behind)] << (c.fusion ? "Fused" : "Unfused");
}

// The fan-out item, then (except at end of stream) the watermark closing
// its window, one item of the next window and the final watermark.
std::vector<core::Item> BurstScript(Behind behind) {
  std::vector<core::Item> script = {core::Item::Data<Burst>(Burst{kBurstKey, kFanOut}, 0)};
  if (behind == Behind::kEndOfStream) return script;
  script.push_back(core::Item::WatermarkAt(kBurstWindow));
  script.push_back(core::Item::Data<Burst>(Burst{kBurstKey, 1}, kBurstWindow));
  script.push_back(core::Item::WatermarkAt(core::kMaxWatermark));
  return script;
}

// source -> fan-out -> identity map (fused with the fan-out or not) and,
// from there, either a count sink or a tumbling-window count per key.
struct BurstJob {
  core::Dag dag;
  std::shared_ptr<std::atomic<int64_t>> count;
  std::shared_ptr<core::SyncCollector<WindowResult<int64_t>>> windows;
  std::shared_ptr<std::atomic<int64_t>> late = std::make_shared<std::atomic<int64_t>>(0);
};

std::unique_ptr<BurstJob> MakeBurstJob(const BurstCase& c, int64_t hold_at) {
  auto job = std::make_unique<BurstJob>();
  Pipeline p;
  auto fanned =
      p.ReadFromSupplier<Burst>(
           "script",
           [script = BurstScript(c.behind), hold_at](const core::ProcessorMeta&)
               -> std::unique_ptr<core::Processor> {
             return std::make_unique<ScriptSourceP>(script, hold_at);
           },
           1)
          .FlatMap<uint64_t>("fan-out",
                             [](const Burst& b, std::vector<uint64_t>* out) {
                               out->insert(out->end(), static_cast<size_t>(b.copies), b.key);
                             })
          .Map<uint64_t>("identity", [](const uint64_t& k) { return k; });
  if (c.behind == Behind::kEndOfStream) {
    job->count = fanned.WriteToCountSink("sink");
  } else {
    job->windows = fanned.GroupingKey([](const uint64_t& k) { return k; })
                       .Window(WindowDef::Tumbling(kBurstWindow))
                       .Aggregate<int64_t, int64_t>("count",
                                                    core::CountingAggregate<uint64_t>())
                       .CollectTo("sink");
  }
  PlanOptions options;
  options.enable_fusion = c.fusion;
  auto lowered = p.ToDag(options);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  if (!lowered.ok()) return nullptr;
  // Copy the lowered DAG, giving the accumulate stage a late-drop counter.
  for (const auto& v : lowered->vertices()) {
    core::ProcessorSupplier supplier = v.supplier;
    if (v.name == "count.accumulate") {
      supplier = [late = job->late](const core::ProcessorMeta&)
          -> std::unique_ptr<core::Processor> {
        return std::make_unique<core::AccumulateByFrameP<uint64_t, int64_t, int64_t>>(
            core::CountingAggregate<uint64_t>(), [](const uint64_t& k) { return k; },
            WindowDef::Tumbling(kBurstWindow), late);
      };
    }
    job->dag.AddVertex(v.name, supplier, v.local_parallelism);
  }
  for (const auto& e : lowered->edges()) {
    job->dag.AddEdge(e.source, e.dest, e.source_ordinal, e.dest_ordinal) = e;
  }
  return job;
}

class BurstOverflowTest : public testing::TestWithParam<BurstCase> {};

TEST_P(BurstOverflowTest, EveryItemPrecedesTheControlItemBehindIt) {
  const BurstCase c = GetParam();
  imdg::DataGrid grid(/*backup_count=*/0);
  ASSERT_TRUE(grid.AddMember(0).ok());
  imdg::SnapshotStore store(&grid);
  core::JobParams params;
  params.cooperative_threads = 1;  // outbox_capacity stays at its default
  params.job_id = 21;
  if (c.behind == Behind::kBarrier) {
    params.config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
    params.config.snapshot_interval = 20 * kNanosPerMilli;
    params.snapshot_store = &store;
  }

  std::shared_ptr<core::SyncCollector<WindowResult<int64_t>>> windows;
  std::shared_ptr<std::atomic<int64_t>> late;
  std::unique_ptr<BurstJob> fx;
  if (c.behind == Behind::kBarrier) {
    // The source holds right after the fan-out item, so the first snapshot
    // barrier follows it directly. Kill the job once that snapshot is
    // committed, before any window closes, and restore a fresh one from it.
    auto first = MakeBurstJob(c, /*hold_at=*/1);
    ASSERT_NE(first, nullptr);
    params.dag = &first->dag;
    auto job1 = core::Job::Create(params);
    ASSERT_TRUE(job1.ok()) << job1.status().ToString();
    ASSERT_TRUE((*job1)->Start().ok());
    for (int i = 0; i < 5000 && (*job1)->last_committed_snapshot() < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE((*job1)->last_committed_snapshot(), 1) << "no snapshot committed in time";
    (*job1)->Cancel();
    (void)(*job1)->Join();
    params.restore_snapshot_id = (*job1)->last_committed_snapshot();
    EXPECT_EQ(first->windows->Snapshot().size(), 0u) << "a window closed before the kill";
    EXPECT_EQ(first->late->load(), 0);
    fx = MakeBurstJob(c, /*hold_at=*/-1);
  } else {
    fx = MakeBurstJob(c, /*hold_at=*/-1);
  }
  ASSERT_NE(fx, nullptr);
  params.dag = &fx->dag;
  auto job = core::Job::Create(params);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE((*job)->Join().ok());

  if (c.behind == Behind::kEndOfStream) {
    EXPECT_EQ(fx->count->load(), kFanOut);
    return;
  }
  EXPECT_EQ(fx->late->load(), 0);
  std::map<Nanos, int64_t> counts;  // window end -> count of kBurstKey
  for (const auto& r : fx->windows->Snapshot()) {
    EXPECT_EQ(r.key, kBurstKey);
    EXPECT_EQ(counts.count(r.window_end), 0u) << "window " << r.window_end << " emitted twice";
    counts[r.window_end] = r.value;
  }
  const std::map<Nanos, int64_t> expected = {{kBurstWindow, kFanOut}, {2 * kBurstWindow, 1}};
  EXPECT_EQ(counts, expected);
}

INSTANTIATE_TEST_SUITE_P(
    OutboxOverflow, BurstOverflowTest,
    testing::Values(BurstCase{Behind::kWatermark, true}, BurstCase{Behind::kWatermark, false},
                    BurstCase{Behind::kEndOfStream, true},
                    BurstCase{Behind::kEndOfStream, false}, BurstCase{Behind::kBarrier, true},
                    BurstCase{Behind::kBarrier, false}));

}  // namespace
}  // namespace jet::pipeline
