// perfbench: the jetsim benchmark driver.
//
// Runs one workload on the real engine (core::Job or cluster::JetCluster,
// tasklets, SPSC queues, the net exchange and wire codec, the imdg snapshot
// store) in two phases:
//
//   paced   the source emits on a fixed schedule; window-result latency is
//           measured from each window's end to its receipt at the sink;
//   replay  a fixed event count whose events are all already due, so the
//           engine runs flat out; gives throughput.
//
// Every window result of both phases is checked against a reference the
// benchmark computes itself from the workload generators. The last stdout
// line is one JSON object; see perfbench/README.md.
//
//   perfbench --workload q5_window --seed 1 --seconds 10 --trace 0

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/jet_cluster.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/job.h"
#include "core/processors_basic.h"
#include "core/processors_window.h"
#include "imdg/grid.h"
#include "imdg/snapshot_store.h"
#include "net/wire_format.h"
#include "nexmark/generator.h"
#include "pipeline/pipeline.h"
#include "shufflebench/generator.h"
#include "shufflebench/matcher.h"
#include "shufflebench/wire.h"

namespace {

using jet::Nanos;
using jet::kNanosPerMilli;
using jet::kNanosPerSecond;
using jet::core::WindowResult;

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

void Check(const jet::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  bool shuffle = false;     // 2-member cluster + serialized exchange
  bool snapshots = false;   // exactly-once snapshots into an imdg store
  double rate = 100'000;    // paced events per second
  int64_t keys = 10'000;    // auctions (Q5) or record keys (shuffle)
  Nanos window_size = kNanosPerSecond;
  Nanos slide = 20 * kNanosPerMilli;
  Nanos wm_interval = 5 * kNanosPerMilli;
  Nanos warmup = 2 * kNanosPerSecond;  // windows ending earlier are not timed
  // Latency is summarized per block of window ends (see MeasureLatency).
  Nanos latency_block = kNanosPerSecond / 4;
  int64_t replay_events = 500'000;  // per replay round
  int32_t workers = 2;  // cooperative workers per job (Q5) or per member
  // Traced runs also repeat the paced phase with the engine's default load
  // rebalancer (see Engine::Start).
  bool rebalanced_phase = false;
};

std::optional<Workload> WorkloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "q5_window") {
    w.rebalanced_phase = true;
    return w;
  }
  if (name == "q5_snapshot") {
    w.snapshots = true;
    // One snapshot interval, so nearly every block holds one stall.
    w.latency_block = kNanosPerSecond;
    return w;
  }
  if (name == "shuffle_exchange") {
    w.shuffle = true;
    w.rate = 200'000;
    w.keys = 100'000;
    w.window_size = 50 * kNanosPerMilli;
    w.slide = 50 * kNanosPerMilli;
    w.warmup = kNanosPerSecond;
    w.workers = 1;
    return w;
  }
  return std::nullopt;
}

// Throughput is the chunk size over the median time of a chunk, taken over
// kReplayRounds replays of kReplayChunks chunks each: a host stall that
// spoils a few chunks does not set the run's figure.
constexpr int64_t kReplayChunks = 20;
constexpr int kReplayRounds = 10;
constexpr int32_t kPayloadBytes = 64;
constexpr int32_t kStateBytesPerKey = 64;

jet::nexmark::GeneratorConfig NexmarkConfig(const Workload& w, uint64_t seed) {
  jet::nexmark::GeneratorConfig c;
  c.auctions = w.keys;
  c.seed = jet::HashU64(seed ^ 0x4E45584D41524BULL);
  return c;
}

jet::shufflebench::GeneratorConfig ShuffleConfig(const Workload& w, uint64_t seed) {
  jet::shufflebench::GeneratorConfig c;
  c.key_cardinality = w.keys;
  c.payload_bytes = kPayloadBytes;
  c.seed = jet::HashU64(seed ^ 0x53485546464CULL);
  return c;
}

Nanos PeriodOf(double rate) {
  auto p = static_cast<Nanos>(1e9 / rate);
  return p < 1 ? 1 : p;
}

// ---------------------------------------------------------------------------
// Event-time anchor
// ---------------------------------------------------------------------------

// Event time 0 of a source, shared by all its parallel instances. Resolved
// once, from the clock the processors see, at a window-slide boundary B0
// plus half the watermark interval: the source emits a watermark every
// `wm_interval` of event time starting at its first event, so every window
// end then closes exactly wm_interval/2 after it ends, in every run.
class Anchor {
 public:
  Anchor(Nanos slide, Nanos wm_interval, Nanos span, bool replay)
      : slide_(slide), wm_interval_(wm_interval), span_(span), replay_(replay) {}

  Nanos Resolve(const jet::Clock& clock) {
    Nanos cur = start_.load(std::memory_order_acquire);
    if (cur >= 0) return cur;
    Nanos now = clock.Now();
    Nanos boundary = 0;
    if (!replay_) {
      // A little in the future, so every instance starts on schedule.
      boundary = (now + kLead + slide_ - 1) / slide_ * slide_;
    } else {
      // Far enough in the past that every event is already due. Event
      // time must stay non-negative, so a young clock is waited out.
      while (now < span_ + 2 * slide_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        now = clock.Now();
      }
      boundary = (now - span_ - slide_) / slide_ * slide_;
    }
    const Nanos want = boundary + wm_interval_ / 2;
    start_.compare_exchange_strong(cur, want, std::memory_order_acq_rel);
    return start_.load(std::memory_order_acquire);
  }

  // Slide boundary B0; window results are indexed by (end - B0) / slide.
  Nanos base() const { return start_.load(std::memory_order_acquire) - wm_interval_ / 2; }

 private:
  static constexpr Nanos kLead = 50 * kNanosPerMilli;
  const Nanos slide_;
  const Nanos wm_interval_;
  const Nanos span_;
  const bool replay_;
  std::atomic<Nanos> start_{-1};
};

// Emission progress of a replay source, shared by its instances: the time
// at which the count of emitted events crossed each multiple of `chunk`.
class Progress {
 public:
  Progress(int64_t total, int64_t chunk)
      : chunk_(chunk), stamps_(static_cast<size_t>(total / chunk + 1), -1) {}

  void Add(int64_t n) {
    if (n <= 0) return;
    const int64_t before = done_.fetch_add(n, std::memory_order_relaxed);
    const int64_t now = MonoNs();
    // Each slot is written by the one instance whose add crossed it.
    if (before == 0) stamps_[0] = now;
    const auto slots = static_cast<int64_t>(stamps_.size());
    for (int64_t k = before / chunk_ + 1; k <= (before + n) / chunk_ && k < slots; ++k) {
      stamps_[static_cast<size_t>(k)] = now;
    }
  }

  // Seconds each chunk took; call once the job has ended.
  void AppendChunkSeconds(std::vector<double>* out) const {
    for (size_t k = 1; k < stamps_.size(); ++k) {
      if (stamps_[k] < 0 || stamps_[k - 1] < 0) continue;
      out->push_back(static_cast<double>(stamps_[k] - stamps_[k - 1]) / 1e9);
    }
  }

 private:
  const int64_t chunk_;
  std::atomic<int64_t> done_{0};
  std::vector<int64_t> stamps_;
};

// GeneratorSourceP whose start_time is taken from the Anchor at Init, and
// which reports its emissions to `progress` when one is given.
template <typename T>
class AnchoredSourceP final : public jet::core::Processor {
 public:
  using Inner = jet::core::GeneratorSourceP<T>;

  AnchoredSourceP(typename Inner::GenFn gen, typename Inner::Options options,
                  std::shared_ptr<Anchor> anchor, std::shared_ptr<Progress> progress)
      : gen_(std::move(gen)),
        options_(options),
        anchor_(std::move(anchor)),
        progress_(std::move(progress)) {}

  jet::Status Init(jet::core::ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    options_.start_time = anchor_->Resolve(*ctx->clock);
    inner_ = std::make_unique<Inner>(gen_, options_);
    return inner_->Init(ctx);
  }
  bool Complete() override {
    if (progress_ == nullptr) return inner_->Complete();
    const int64_t before = inner_->events_emitted();
    const bool done = inner_->Complete();
    progress_->Add(inner_->events_emitted() - before);
    return done;
  }
  bool SaveToSnapshot() override { return inner_->SaveToSnapshot(); }
  jet::Status RestoreFromSnapshot(const jet::core::StateEntry& e) override {
    return inner_->RestoreFromSnapshot(e);
  }

 private:
  typename Inner::GenFn gen_;
  typename Inner::Options options_;
  std::shared_ptr<Anchor> anchor_;
  std::shared_ptr<Progress> progress_;
  std::unique_ptr<Inner> inner_;
};

// ---------------------------------------------------------------------------
// Result log and sink
// ---------------------------------------------------------------------------

struct ResultEntry {
  uint32_t key = 0;
  int32_t window = -1;  // (window_end - B0) / slide; -1 = unused slot
  int32_t value = 0;
  int32_t latency_ns = 0;  // receipt - window end, saturated
};

constexpr int32_t kBadWindow = std::numeric_limits<int32_t>::min();

// Storage sized and touched before the job starts: sinks claim chunks of it
// with one atomic add, so the measured path never allocates.
class ResultLog {
 public:
  explicit ResultLog(size_t capacity) : entries_(capacity) { Reset(); }

  void Reset() {
    std::fill(entries_.begin(), entries_.end(), ResultEntry{});
    next_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
  }

  bool Claim(int64_t* begin, int64_t* end) {
    const int64_t b = next_.fetch_add(kChunk, std::memory_order_relaxed);
    const auto cap = static_cast<int64_t>(entries_.size());
    if (b >= cap) return false;
    *begin = b;
    *end = std::min(b + kChunk, cap);
    return true;
  }

  ResultEntry* at(int64_t i) { return &entries_[static_cast<size_t>(i)]; }
  void CountOverflow() { overflow_.fetch_add(1, std::memory_order_relaxed); }
  int64_t overflow() const { return overflow_.load(std::memory_order_relaxed); }
  int64_t used() const {
    return std::min<int64_t>(next_.load(std::memory_order_relaxed),
                             static_cast<int64_t>(entries_.size()));
  }
  std::vector<ResultEntry>& entries() { return entries_; }

  static constexpr int64_t kChunk = 4096;

 private:
  std::vector<ResultEntry> entries_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> overflow_{0};
};

class ResultSinkP final : public jet::core::Processor {
 public:
  ResultSinkP(ResultLog* log, std::shared_ptr<Anchor> anchor, Nanos slide)
      : log_(log), anchor_(std::move(anchor)), slide_(slide) {}

  void Process(int ordinal, jet::core::Inbox* inbox) override {
    (void)ordinal;
    const Nanos now = ctx()->clock->Now();
    const Nanos base = anchor_->base();
    while (!inbox->Empty()) {
      const auto& r = inbox->Peek()->payload.As<WindowResult<int64_t>>();
      if (pos_ == end_ && !log_->Claim(&pos_, &end_)) {
        log_->CountOverflow();
      } else {
        ResultEntry* e = log_->at(pos_++);
        const Nanos rel = r.window_end - base;
        const bool aligned = rel > 0 && rel % slide_ == 0 &&
                             rel / slide_ < std::numeric_limits<int32_t>::max() &&
                             r.key <= std::numeric_limits<uint32_t>::max();
        e->key = static_cast<uint32_t>(r.key);
        e->window = aligned ? static_cast<int32_t>(rel / slide_) : kBadWindow;
        e->value = static_cast<int32_t>(
            std::clamp<int64_t>(r.value, 0, std::numeric_limits<int32_t>::max()));
        e->latency_ns = static_cast<int32_t>(std::clamp<Nanos>(
            now - r.window_end, 0, std::numeric_limits<int32_t>::max()));
      }
      inbox->RemoveFront();
    }
  }

 private:
  ResultLog* log_;
  std::shared_ptr<Anchor> anchor_;
  Nanos slide_;
  int64_t pos_ = 0;
  int64_t end_ = 0;
};

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

using KeyCounts = std::vector<std::pair<uint32_t, int32_t>>;  // key-sorted

// Expected window results of one phase, computed from the generators apart
// from the engine. Window e (1-based) ends at B0 + e*slide and covers frames
// e-S .. e-1, S = size/slide; frame f holds the events whose offset from B0,
// wm/2 + seq*period, lies in [f*slide, (f+1)*slide).
struct Reference {
  int64_t events = 0;
  int64_t counted = 0;         // bids (Q5) or records (shuffle)
  int64_t remote_records = 0;  // shuffle: records whose matcher is on the other member
  Nanos last_event_offset = 0;  // of the last event, from B0
  int32_t span = 1;             // frames per window
  int32_t windows = 0;
  int64_t expected = 0;         // window results
  std::vector<KeyCounts> frames;

  // Calls fn(e, counts) for every window in order, with its expected
  // per-key counts.
  template <typename Fn>
  void ForEachWindow(int64_t keys, Fn&& fn) const {
    if (span == 1) {
      for (int32_t e = 1; e <= windows; ++e) fn(e, frames[static_cast<size_t>(e - 1)]);
      return;
    }
    std::vector<int32_t> running(static_cast<size_t>(keys), 0);
    KeyCounts counts;
    const auto n = static_cast<int32_t>(frames.size());
    for (int32_t e = 1; e <= windows; ++e) {
      if (e - 1 < n) {
        for (auto [k, c] : frames[static_cast<size_t>(e - 1)]) running[k] += c;
      }
      if (e - span - 1 >= 0) {
        for (auto [k, c] : frames[static_cast<size_t>(e - span - 1)]) running[k] -= c;
      }
      counts.clear();
      for (size_t k = 0; k < running.size(); ++k) {
        if (running[k] > 0) counts.emplace_back(static_cast<uint32_t>(k), running[k]);
      }
      fn(e, counts);
    }
  }
};

// `key_of(seq)` returns the window key of event `seq`, or -1 if the event
// is not aggregated (non-bid NEXMark events).
Reference BuildReference(const Workload& w, int64_t events,
                         const std::function<int64_t(int64_t)>& key_of) {
  Reference ref;
  ref.events = events;
  const Nanos period = PeriodOf(w.rate);
  const Nanos half = w.wm_interval / 2;
  ref.last_event_offset = half + (events - 1) * period;
  const auto frames = static_cast<int32_t>(ref.last_event_offset / w.slide + 1);
  ref.span = static_cast<int32_t>(w.window_size / w.slide);
  ref.windows = frames + ref.span - 1;
  ref.frames.resize(static_cast<size_t>(frames));
  std::vector<uint32_t> keys;
  int32_t frame = 0;
  auto flush = [&]() {
    std::sort(keys.begin(), keys.end());
    auto& out = ref.frames[static_cast<size_t>(frame)];
    for (size_t i = 0; i < keys.size();) {
      size_t j = i;
      while (j < keys.size() && keys[j] == keys[i]) ++j;
      out.emplace_back(keys[i], static_cast<int32_t>(j - i));
      i = j;
    }
    keys.clear();
  };
  for (int64_t seq = 0; seq < events; ++seq) {
    const auto f = static_cast<int32_t>((half + seq * period) / w.slide);
    if (f != frame) {
      flush();
      frame = f;
    }
    const int64_t key = key_of(seq);
    if (key < 0) continue;
    keys.push_back(static_cast<uint32_t>(key));
    ++ref.counted;
  }
  flush();
  ref.ForEachWindow(w.keys, [&ref](int32_t, const KeyCounts& counts) {
    ref.expected += static_cast<int64_t>(counts.size());
  });
  return ref;
}

Reference NexmarkReference(const Workload& w, uint64_t seed, int64_t events) {
  const auto config = NexmarkConfig(w, seed);
  return BuildReference(w, events, [&config](int64_t seq) -> int64_t {
    const auto e = jet::nexmark::MakeEvent(config, seq);
    return e.kind == jet::nexmark::EventKind::kBid ? e.bid.auction : -1;
  });
}

Reference ShuffleReference(const Workload& w, uint64_t seed, int64_t events) {
  const jet::shufflebench::RecordGenerator gen(ShuffleConfig(w, seed));
  int64_t remote = 0;
  Reference ref = BuildReference(w, events, [&gen, &remote](int64_t seq) -> int64_t {
    const auto rec = gen.MakeRecord(seq);
    // Source instance i of 2 owns virtual partitions v % 2 == i (64 of
    // them, seq % 64); matcher instance i owns key hashes h % 2 == i.
    const int64_t source_member = (seq % 64) % 2;
    const auto match_member =
        static_cast<int64_t>(jet::shufflebench::RecordGenerator::KeyHash(rec) % 2);
    if (source_member != match_member) ++remote;
    return static_cast<int64_t>(rec.key);
  });
  ref.remote_records = remote;
  return ref;
}

// ---------------------------------------------------------------------------
// Verification and latency
// ---------------------------------------------------------------------------

// One operation is one expected window: it fails when any of its results
// is missing, duplicated or wrong. The window count of a phase follows from
// its event count alone, so `attempted` is the same for every seed. Results
// that belong to no expected window are counted apart, as operations of
// their own that failed.
struct Verdict {
  int64_t windows = 0;
  int64_t failed_windows = 0;
  int64_t stray = 0;
  // Result-level detail, for the log.
  int64_t expected = 0;
  int64_t missing = 0;
  int64_t duplicated = 0;
  int64_t wrong = 0;  // wrong count, or a result no window should hold
  int64_t attempted() const { return windows + stray; }
  int64_t failed() const { return failed_windows + stray; }
  void Add(const Verdict& o) {
    windows += o.windows;
    failed_windows += o.failed_windows;
    stray += o.stray;
    expected += o.expected;
    missing += o.missing;
    duplicated += o.duplicated;
    wrong += o.wrong;
  }
};

// Sorts the log by (window, key) and compares it with the reference.
Verdict Verify(const Workload& w, const Reference& ref, ResultLog* log) {
  Verdict v;
  v.expected = ref.expected;
  v.stray += log->overflow();
  auto& entries = log->entries();
  const auto used_end = entries.begin() + log->used();
  auto first = std::partition(entries.begin(), used_end,
                              [](const ResultEntry& e) { return e.window == -1; });
  std::sort(first, used_end, [](const ResultEntry& a, const ResultEntry& b) {
    return a.window != b.window ? a.window < b.window : a.key < b.key;
  });
  auto it = first;
  while (it != used_end && it->window < 1) {
    ++v.stray;
    ++it;
  }
  ref.ForEachWindow(w.keys, [&](int32_t e, const KeyCounts& counts) {
    const int64_t faults = v.missing + v.duplicated + v.wrong;
    auto exp = counts.begin();
    while (exp != counts.end() || (it != used_end && it->window == e)) {
      const bool have = it != used_end && it->window == e;
      if (!have || (exp != counts.end() && exp->first < it->key)) {
        ++v.missing;
        ++exp;
        continue;
      }
      if (exp == counts.end() || it->key < exp->first) {
        ++v.wrong;
        ++it;
        continue;
      }
      if (it->value != exp->second) ++v.wrong;
      ++it;
      while (it != used_end && it->window == e && it->key == exp->first) {
        ++v.duplicated;
        ++it;
      }
      ++exp;
    }
    ++v.windows;
    if (v.missing + v.duplicated + v.wrong > faults) ++v.failed_windows;
  });
  v.stray += used_end - it;  // results past the last expected window
  v.wrong += v.stray;
  return v;
}

// Value at quantile q (nearest rank) of values[0, n), in ms; reorders them.
double Quantile(int32_t* values, size_t n, double q) {
  auto idx = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  idx = std::clamp<size_t>(idx, 1, n) - 1;
  std::nth_element(values, values + idx, values + n);
  return static_cast<double>(values[idx]) / 1e6;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Latency {
  // Bounded figures: medians over blocks of the per-block percentiles.
  double p50_ms = 0, p99_ms = 0;
  int64_t blocks = 0;
  // Reference figures over every timed result.
  int64_t samples = 0;
  int64_t windows = 0;
  double all_p50_ms = 0, all_p99_ms = 0, p999_ms = 0, p9999_ms = 0, max_ms = 0;
};

// Latency of the windows that end after the warm-up and close on a regular
// watermark (the final kMaxWatermark flush carries no latency). The timed
// span is cut into blocks of w.latency_block of window ends; p50 and p99
// are the medians of the per-block percentiles, so a host stall that spoils
// a few blocks does not set the run's figure. Call after Verify: the log is
// then sorted by window, so each block is one run of `scratch`. `scratch`
// holds as many values as the log and was touched before the memory
// baseline: measuring adds nothing to peak_rss_mb.
Latency MeasureLatency(const Workload& w, const Reference& ref, ResultLog* log,
                       std::vector<int32_t>* scratch) {
  Latency lat;
  int32_t* values = scratch->data();
  size_t n = 0;
  size_t block_begin = 0;
  std::vector<double> p50s;  // one per block: a few dozen
  std::vector<double> p99s;
  int64_t current_block = -1;
  auto close_block = [&]() {
    if (n == block_begin) return;
    p50s.push_back(Quantile(values + block_begin, n - block_begin, 0.50));
    p99s.push_back(Quantile(values + block_begin, n - block_begin, 0.99));
    block_begin = n;
  };
  int32_t last_window = -1;
  const auto& entries = log->entries();
  for (int64_t i = 0; i < log->used(); ++i) {
    const ResultEntry& e = entries[static_cast<size_t>(i)];
    if (e.window < 1) continue;
    const Nanos end = static_cast<Nanos>(e.window) * w.slide;
    if (end <= w.warmup || end + w.wm_interval / 2 > ref.last_event_offset) continue;
    const int64_t b = (end - w.warmup - 1) / w.latency_block;
    if (b != current_block) {
      close_block();
      current_block = b;
    }
    values[n++] = e.latency_ns;
    if (e.window != last_window) {
      ++lat.windows;
      last_window = e.window;
    }
  }
  close_block();
  lat.samples = static_cast<int64_t>(n);
  if (n == 0) return lat;
  lat.blocks = static_cast<int64_t>(p50s.size());
  lat.p50_ms = Median(p50s);
  lat.p99_ms = Median(p99s);
  lat.all_p50_ms = Quantile(values, n, 0.50);
  lat.all_p99_ms = Quantile(values, n, 0.99);
  lat.p999_ms = Quantile(values, n, 0.999);
  lat.p9999_ms = Quantile(values, n, 0.9999);
  lat.max_ms = static_cast<double>(*std::max_element(values, values + n)) / 1e6;
  return lat;
}

// ---------------------------------------------------------------------------
// Tracing: processor wrappers timed from outside
// ---------------------------------------------------------------------------

enum class Role { kSource, kFused, kAccumulate, kCombine, kSink };

struct LayerStats {
  Role role = Role::kSource;
  int64_t busy_ns = 0;
  int64_t items_in = 0;
  int64_t items_out = 0;  // data items offered to the outbox
  int64_t save_ns = 0;
  jet::Histogram lag_ns{60 * kNanosPerSecond};       // first stage: due -> receipt
  jet::Histogram emit_call_ns{60 * kNanosPerSecond};  // watermark calls that emitted
};

class Tracer {
 public:
  LayerStats* New(Role role) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.emplace_back();
    stats_.back().role = role;
    return &stats_.back();
  }

  // Sum over all instances of one role (call once the job has ended).
  LayerStats Total(Role role) const {
    std::lock_guard<std::mutex> lock(mutex_);
    LayerStats total;
    total.role = role;
    for (const auto& s : stats_) {
      if (s.role != role) continue;
      total.busy_ns += s.busy_ns;
      total.items_in += s.items_in;
      total.items_out += s.items_out;
      total.save_ns += s.save_ns;
      total.lag_ns.Merge(s.lag_ns);
      total.emit_call_ns.Merge(s.emit_call_ns);
    }
    return total;
  }

  int64_t SaveNs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t total = 0;
    for (const auto& s : stats_) total += s.save_ns;
    return total;
  }

 private:
  mutable std::mutex mutex_;
  std::deque<LayerStats> stats_;
};

class TimedP final : public jet::core::Processor {
 public:
  TimedP(std::unique_ptr<jet::core::Processor> inner, LayerStats* stats, bool first_stage)
      : inner_(std::move(inner)), s_(stats), first_stage_(first_stage) {}

  jet::Status Init(jet::core::ProcessorContext* ctx) override {
    JET_RETURN_IF_ERROR(Processor::Init(ctx));
    return inner_->Init(ctx);
  }

  void Process(int ordinal, jet::core::Inbox* inbox) override {
    const size_t in = inbox->Size();
    if (first_stage_ && !inbox->Empty()) {
      s_->lag_ns.Record(ctx()->clock->Now() - inbox->Peek()->timestamp);
    }
    Timed([&] { inner_->Process(ordinal, inbox); });
    s_->items_in += static_cast<int64_t>(in - inbox->Size());
  }
  bool TryProcess() override {
    bool r = false;
    Timed([&] { r = inner_->TryProcess(); });
    return r;
  }
  bool TryProcessWatermark(Nanos wm) override {
    bool r = false;
    const int64_t out = s_->items_out;
    const int64_t ns = Timed([&] { r = inner_->TryProcessWatermark(wm); });
    if (s_->items_out > out) s_->emit_call_ns.Record(ns);
    return r;
  }
  bool CompleteEdge(int ordinal) override {
    bool r = false;
    Timed([&] { r = inner_->CompleteEdge(ordinal); });
    return r;
  }
  bool Complete() override {
    bool r = false;
    Timed([&] { r = inner_->Complete(); });
    return r;
  }
  bool SaveToSnapshot() override {
    bool r = false;
    s_->save_ns += Timed([&] { r = inner_->SaveToSnapshot(); });
    return r;
  }
  jet::Status RestoreFromSnapshot(const jet::core::StateEntry& e) override {
    return inner_->RestoreFromSnapshot(e);
  }
  bool FinishSnapshotRestore() override { return inner_->FinishSnapshotRestore(); }
  bool OnSnapshotCompleted(int64_t id) override { return inner_->OnSnapshotCompleted(id); }
  bool InitiatesSnapshots() const override { return inner_->InitiatesSnapshots(); }
  bool IsCooperative() const override { return inner_->IsCooperative(); }
  void ReleaseWorkerOwnership() override { inner_->ReleaseWorkerOwnership(); }
  void AdoptWorkerOwnership(int32_t worker) override { inner_->AdoptWorkerOwnership(worker); }

 private:
  // Runs `fn`, adds its duration to busy time and counts the data items it
  // offered to the outbox; returns the duration.
  template <typename Fn>
  int64_t Timed(Fn&& fn) {
    jet::core::Outbox* outbox = ctx()->outbox;
    const int edges = outbox->edge_count();
    size_t before = edges > 0 ? outbox->bucket(0).size() : 0;
    const int64_t t0 = MonoNs();
    fn();
    const int64_t ns = MonoNs() - t0;
    s_->busy_ns += ns;
    if (edges > 0) {
      const auto& bucket = outbox->bucket(0);
      for (size_t i = std::min(before, bucket.size()); i < bucket.size(); ++i) {
        if (bucket[i].IsData()) ++s_->items_out;
      }
    }
    return ns;
  }

  std::unique_ptr<jet::core::Processor> inner_;
  LayerStats* s_;
  bool first_stage_;
};

// Adds a vertex, wrapped in a TimedP when tracing.
jet::core::VertexId AddVertex(jet::core::Dag* dag, const std::string& name, Role role,
                              jet::core::ProcessorSupplier supplier, int32_t parallelism,
                              Tracer* tracer, bool first_stage = false) {
  if (tracer != nullptr) {
    supplier = [supplier, tracer, role, first_stage](const jet::core::ProcessorMeta& m)
        -> std::unique_ptr<jet::core::Processor> {
      return std::make_unique<TimedP>(supplier(m), tracer->New(role), first_stage);
    };
  }
  return dag->AddVertex(name, std::move(supplier), parallelism);
}

// ---------------------------------------------------------------------------
// DAGs
// ---------------------------------------------------------------------------

struct Phase {
  std::shared_ptr<Anchor> anchor;
  std::shared_ptr<Progress> progress;  // replay only
  std::shared_ptr<std::atomic<int64_t>> late = std::make_shared<std::atomic<int64_t>>(0);
  jet::core::Dag dag;
};

// Copies a DAG lowered by pipeline::Pipeline into `dag` vertex by vertex.
// The vertex named `<stage>.accumulate` gets `accumulate` instead of its
// own supplier, so it can report late drops; when tracing, every vertex is
// wrapped.
void CopyLowered(const jet::core::Dag& src, const std::string& source_name,
                 const std::string& stage, jet::core::ProcessorSupplier accumulate,
                 Tracer* tracer, jet::core::Dag* dag) {
  for (const auto& v : src.vertices()) {
    Role role = Role::kFused;
    jet::core::ProcessorSupplier supplier = v.supplier;
    if (v.name == source_name) {
      role = Role::kSource;
    } else if (v.name == "sink") {
      role = Role::kSink;
    } else if (v.name == stage + ".combine") {
      role = Role::kCombine;
    } else if (v.name == stage + ".accumulate") {
      role = Role::kAccumulate;
      supplier = accumulate;
    }
    AddVertex(dag, v.name, role, supplier, v.local_parallelism, tracer, role == Role::kFused);
  }
  for (const auto& e : src.edges()) {
    auto& copy = dag->AddEdge(e.source, e.dest, e.source_ordinal, e.dest_ordinal);
    copy.routing = e.routing;
    copy.distributed = e.distributed;
    copy.priority = e.priority;
    copy.queue_size = e.queue_size;
  }
  Check(dag->Validate(), "validating lowered DAG");
}

// NEXMark Q5 as the Pipeline API lowers it (source -> fused bid filter ->
// accumulate -> combine -> sink).
void BuildQ5(const Workload& w, uint64_t seed, int64_t events, ResultLog* log,
             Tracer* tracer, Phase* phase) {
  using jet::nexmark::Bid;
  using jet::nexmark::Event;
  jet::core::GeneratorSourceP<Event>::Options opt;
  opt.events_per_second = w.rate;
  opt.duration = events * PeriodOf(w.rate);
  opt.watermark_interval = w.wm_interval;
  auto gen = jet::nexmark::MakeEventGenFn(NexmarkConfig(w, seed));
  auto anchor = phase->anchor;
  auto progress = phase->progress;
  const auto window = jet::core::WindowDef::Sliding(w.window_size, w.slide);

  jet::pipeline::Pipeline p;
  p.ReadFromSupplier<Event>(
       "nexmark-source",
       [gen, opt, anchor, progress](const jet::core::ProcessorMeta&)
           -> std::unique_ptr<jet::core::Processor> {
         return std::make_unique<AnchoredSourceP<Event>>(gen, opt, anchor, progress);
       },
       1)
      .FlatMap<Bid>("bids",
                    [](const Event& e, std::vector<Bid>* out) {
                      if (e.kind == jet::nexmark::EventKind::kBid) out->push_back(e.bid);
                    })
      .GroupingKey([](const Bid& b) { return static_cast<uint64_t>(b.auction); })
      .Window(window)
      .Aggregate<int64_t, int64_t>("bid-count", jet::core::CountingAggregate<Bid>())
      .WriteTo("sink", [log, anchor, slide = w.slide](const jet::core::ProcessorMeta&) {
        return std::make_unique<ResultSinkP>(log, anchor, slide);
      }, -1);
  auto lowered = p.ToDag();
  Check(lowered.status(), "lowering Q5");
  CopyLowered(lowered.value(), "nexmark-source", "bid-count",
              [window, late = phase->late](const jet::core::ProcessorMeta&)
                  -> std::unique_ptr<jet::core::Processor> {
                return std::make_unique<jet::core::AccumulateByFrameP<Bid, int64_t, int64_t>>(
                    jet::core::CountingAggregate<Bid>(),
                    [](const Bid& b) { return static_cast<uint64_t>(b.auction); }, window,
                    late);
              },
              tracer, &phase->dag);
}

// The ShuffleBench matcher: generate -[distributed, partitioned]-> match
// -[partitioned]-> combine -> sink, one instance of each per member.
void BuildShuffle(const Workload& w, uint64_t seed, int64_t events, ResultLog* log,
                  Tracer* tracer, Phase* phase) {
  using jet::shufflebench::MatcherState;
  using jet::shufflebench::Record;
  Check(jet::shufflebench::RegisterShuffleBenchPayload(), "registering record codec");
  jet::core::GeneratorSourceP<Record>::Options opt;
  opt.events_per_second = w.rate;
  opt.duration = events * PeriodOf(w.rate);
  opt.watermark_interval = w.wm_interval;
  auto gen = jet::shufflebench::MakeRecordGenFn(ShuffleConfig(w, seed));
  auto anchor = phase->anchor;
  auto progress = phase->progress;
  auto late = phase->late;
  const auto window = jet::core::WindowDef::Tumbling(w.window_size);
  const auto op = jet::shufflebench::MatcherAggregate(kStateBytesPerKey);
  auto& dag = phase->dag;

  auto source = AddVertex(
      &dag, "generate", Role::kSource,
      [gen, opt, anchor, progress](const jet::core::ProcessorMeta&)
          -> std::unique_ptr<jet::core::Processor> {
        return std::make_unique<AnchoredSourceP<Record>>(gen, opt, anchor, progress);
      },
      1, tracer);
  auto match = AddVertex(
      &dag, "match", Role::kAccumulate,
      [op, window, late](const jet::core::ProcessorMeta&)
          -> std::unique_ptr<jet::core::Processor> {
        return std::make_unique<jet::core::AccumulateByFrameP<Record, MatcherState, int64_t>>(
            op, [](const Record& rec) { return rec.key; }, window, late);
      },
      1, tracer, /*first_stage=*/true);
  auto combine = AddVertex(
      &dag, "combine", Role::kCombine,
      [op, window](const jet::core::ProcessorMeta&) -> std::unique_ptr<jet::core::Processor> {
        return std::make_unique<jet::core::CombineFramesP<Record, MatcherState, int64_t>>(
            op, window);
      },
      1, tracer);
  auto sink = AddVertex(
      &dag, "sink", Role::kSink,
      [log, anchor, slide = w.slide](const jet::core::ProcessorMeta&)
          -> std::unique_ptr<jet::core::Processor> {
        return std::make_unique<ResultSinkP>(log, anchor, slide);
      },
      1, tracer);
  auto& shuffle = dag.AddEdge(source, match);
  shuffle.routing = jet::core::RoutingPolicy::kPartitioned;
  shuffle.distributed = true;
  auto& frames = dag.AddEdge(match, combine);
  frames.routing = jet::core::RoutingPolicy::kPartitioned;
  frames.distributed = true;
  dag.AddEdge(combine, sink);
  Check(dag.Validate(), "validating shuffle DAG");
}

// ---------------------------------------------------------------------------
// Outbox probe
// ---------------------------------------------------------------------------

// A fixed job, the same in every run, at the engine's default JobConfig. A
// stateless stage parks the output that does not fit its outbox and sends
// it on only from its next Process call, but the tasklet forwards a
// watermark that follows the input ahead of it (README, "Known faults").
// Here one input fans out to more items than the default outbox holds and
// a watermark closing its window comes right after it, so the fault shows
// on every run: window 1 loses the parked items, which reach the window
// stage late. Each window is one operation, counted in attempted/failed.
struct Burst {
  uint64_t key = 0;
  int32_t copies = 0;
};

constexpr Nanos kProbeWindow = 10 * kNanosPerMilli;
constexpr uint64_t kProbeKey = 7;
constexpr int32_t kProbeFanOut = 200;  // default outbox_capacity is 128

// Emits a fixed list of items, data and watermarks, in order.
class ScriptSourceP final : public jet::core::Processor {
 public:
  explicit ScriptSourceP(std::vector<jet::core::Item> script) : script_(std::move(script)) {}
  bool Complete() override {
    for (; next_ < script_.size(); ++next_) {
      if (!ctx()->outbox->OfferToAll(script_[next_])) return false;
    }
    return true;
  }

 private:
  std::vector<jet::core::Item> script_;
  size_t next_ = 0;
};

// Keeps every window result; read once the job has ended.
class CollectSinkP final : public jet::core::Processor {
 public:
  explicit CollectSinkP(std::shared_ptr<std::vector<WindowResult<int64_t>>> out)
      : out_(std::move(out)) {}
  void Process(int ordinal, jet::core::Inbox* inbox) override {
    (void)ordinal;
    for (; !inbox->Empty(); inbox->RemoveFront()) {
      out_->push_back(inbox->Peek()->payload.As<WindowResult<int64_t>>());
    }
  }

 private:
  std::shared_ptr<std::vector<WindowResult<int64_t>>> out_;
};

struct ProbeResult {
  Verdict verdict;
  int64_t late = 0;
  int64_t window1_count = -1;
};

ProbeResult RunOutboxProbe() {
  using jet::core::Item;
  const auto window = jet::core::WindowDef::Tumbling(kProbeWindow);
  // (window end, count) of key kProbeKey; no other result is expected.
  const std::vector<std::pair<Nanos, int64_t>> expected = {{kProbeWindow, kProbeFanOut},
                                                           {2 * kProbeWindow, 1}};
  auto results = std::make_shared<std::vector<WindowResult<int64_t>>>();
  auto late = std::make_shared<std::atomic<int64_t>>(0);

  jet::pipeline::Pipeline p;
  p.ReadFromSupplier<Burst>(
       "probe-source",
       [](const jet::core::ProcessorMeta&) -> std::unique_ptr<jet::core::Processor> {
         return std::make_unique<ScriptSourceP>(std::vector<Item>{
             Item::Data<Burst>(Burst{kProbeKey, kProbeFanOut}, 0),
             Item::WatermarkAt(kProbeWindow),
             Item::Data<Burst>(Burst{kProbeKey, 1}, kProbeWindow),
             Item::WatermarkAt(jet::core::kMaxWatermark)});
       },
       1)
      .FlatMap<uint64_t>("fan-out",
                         [](const Burst& b, std::vector<uint64_t>* out) {
                           out->insert(out->end(), static_cast<size_t>(b.copies), b.key);
                         })
      .GroupingKey([](const uint64_t& k) { return k; })
      .Window(window)
      .Aggregate<int64_t, int64_t>("count", jet::core::CountingAggregate<uint64_t>())
      .WriteTo("sink", [results](const jet::core::ProcessorMeta&) {
        return std::make_unique<CollectSinkP>(results);
      });
  auto lowered = p.ToDag();
  Check(lowered.status(), "lowering the outbox probe");
  jet::core::Dag dag;
  CopyLowered(lowered.value(), "probe-source", "count",
              [window, late](const jet::core::ProcessorMeta&)
                  -> std::unique_ptr<jet::core::Processor> {
                return std::make_unique<jet::core::AccumulateByFrameP<uint64_t, int64_t, int64_t>>(
                    jet::core::CountingAggregate<uint64_t>(),
                    [](const uint64_t& k) { return k; }, window, late);
              },
              nullptr, &dag);

  jet::core::JobParams params;
  params.dag = &dag;
  params.cooperative_threads = 1;
  auto job = jet::core::Job::Create(params);
  Check(job.status(), "creating the outbox probe");
  Check(job.value()->Start(), "starting the outbox probe");
  Check(job.value()->Join(), "outbox probe");

  ProbeResult r;
  r.late = late->load();
  Verdict& v = r.verdict;
  for (const auto& [end, count] : expected) {
    ++v.windows;
    ++v.expected;
    int64_t seen = 0;
    bool right = false;
    for (const auto& res : *results) {
      if (res.window_end != end) continue;
      ++seen;
      right = res.key == kProbeKey && res.value == count;
      if (end == kProbeWindow) r.window1_count = res.value;
    }
    if (seen == 0) ++v.missing;
    if (seen > 1) v.duplicated += seen - 1;
    if (seen >= 1 && !right) ++v.wrong;
    if (seen != 1 || !right) ++v.failed_windows;
  }
  for (const auto& res : *results) {
    if (res.window_end != kProbeWindow && res.window_end != 2 * kProbeWindow) ++v.stray;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Engine runners
// ---------------------------------------------------------------------------

// Runs DAGs on the engine the workload names: a single core::Job (with a
// one-member DataGrid snapshot store when snapshots are on) or a 2-member
// cluster::JetCluster.
class Engine {
 public:
  Engine(const Workload& w) : w_(w) {
    if (w.shuffle) {
      jet::cluster::ClusterConfig cc;
      cc.initial_nodes = 2;
      cc.threads_per_node = w.workers;
      cluster_ = std::make_unique<jet::cluster::JetCluster>(cc);
    } else if (w.snapshots) {
      grid_ = std::make_unique<jet::imdg::DataGrid>(/*backup_count=*/0);
      Check(grid_->AddMember(0).status(), "adding grid member");
      store_ = std::make_unique<jet::imdg::SnapshotStore>(grid_.get());
    }
  }

  // `rebalance` keeps the engine's periodic load rebalancer on; otherwise
  // tasklet placement is static. The bounded figures use static placement:
  // with the rebalancer on, q5_window latency spread between runs by more
  // than the largest bound allows.
  void Start(const jet::core::Dag* dag, int64_t job_id, bool rebalance = false) {
    jet::core::JobConfig config;
    if (!rebalance) config.rebalance_interval = 0;
    // Room for a whole inbox batch: a stateless stage then never parks
    // output in its own pending queue, where a watermark can overtake it
    // now and then. RunOutboxProbe shows that fault on every run instead.
    config.outbox_capacity = config.max_inbox_batch;
    if (w_.snapshots) {
      config.guarantee = jet::core::ProcessingGuarantee::kExactlyOnce;
      config.snapshot_interval = kNanosPerSecond;
    }
    if (cluster_ != nullptr) {
      config.serialize_exchange_frames = true;
      auto job = cluster_->SubmitJob(dag, config, job_id);
      Check(job.status(), "submitting cluster job");
      cluster_job_ = job.value();
      return;
    }
    jet::core::JobParams params;
    params.dag = dag;
    params.config = config;
    params.cooperative_threads = w_.workers;
    params.snapshot_store = store_.get();
    params.job_id = job_id;
    auto job = jet::core::Job::Create(params);
    Check(job.status(), "creating job");
    job_ = std::move(job.value());
    Check(job_->Start(), "starting job");
  }

  void Join() {
    if (cluster_job_ != nullptr) {
      Check(cluster_job_->Join(), "cluster job");
    } else {
      Check(job_->Join(), "job");
    }
  }

  std::vector<jet::obs::MetricSnapshot> MetricSnapshots() const {
    return cluster_job_ != nullptr ? cluster_job_->MetricSnapshots() : job_->MetricSnapshots();
  }

  int64_t SnapshotsTaken() const { return job_ != nullptr ? job_->snapshots_taken() : 0; }
  int64_t MessagesSent() { return cluster_ != nullptr ? cluster_->network().sent_count() : 0; }
  const jet::imdg::DataGrid* grid() const {
    return cluster_ != nullptr ? &cluster_->grid() : grid_.get();
  }

 private:
  const Workload& w_;
  std::unique_ptr<jet::imdg::DataGrid> grid_;
  std::unique_ptr<jet::imdg::SnapshotStore> store_;
  std::unique_ptr<jet::cluster::JetCluster> cluster_;
  jet::cluster::ClusterJob* cluster_job_ = nullptr;
  std::unique_ptr<jet::core::Job> job_;
};

// ---------------------------------------------------------------------------
// Per-layer readings from the obs registry
// ---------------------------------------------------------------------------

struct RegistryReadings {
  double sched_delay_p99_us = 0;
  int64_t overbudget_calls = 0;
  double worker_busy_ms = 0;
  double sender_busy_ms = 0;
  double receiver_busy_ms = 0;
  int64_t items_sent = 0;
  double batch_size_mean = 0;
};

double HistogramSum(const jet::Histogram& h) {
  return h.Mean() * static_cast<double>(h.count());
}

RegistryReadings ReadRegistry(const std::vector<jet::obs::MetricSnapshot>& snaps) {
  RegistryReadings r;
  std::optional<jet::Histogram> delay;
  std::optional<jet::Histogram> batch;
  auto merge = [](std::optional<jet::Histogram>* into, const jet::Histogram& h) {
    if (!into->has_value()) {
      *into = h;
    } else {
      (*into)->Merge(h);
    }
  };
  for (const auto& s : snaps) {
    const std::string& n = s.id.name;
    if (n == "tasklet.sched_delay_nanos" && s.histogram) {
      merge(&delay, *s.histogram);
    } else if (n == "tasklet.overbudget_calls") {
      r.overbudget_calls += s.value;
    } else if (n == "tasklet.call_nanos" && s.histogram) {
      const double ms = HistogramSum(*s.histogram) / 1e6;
      r.worker_busy_ms += ms;
      if (s.id.tags.tasklet.rfind("sender:", 0) == 0) r.sender_busy_ms += ms;
      if (s.id.tags.tasklet.rfind("receiver:", 0) == 0) r.receiver_busy_ms += ms;
    } else if (n == "exchange.items_sent") {
      r.items_sent += s.value;
    } else if (n == "exchange.batch_size" && s.histogram) {
      merge(&batch, *s.histogram);
    }
  }
  if (delay.has_value()) {
    r.sched_delay_p99_us = static_cast<double>(delay->ValueAtQuantile(0.99)) / 1e3;
  }
  if (batch.has_value()) r.batch_size_mean = batch->Mean();
  return r;
}

// Encode + decode time of the workload's records through the public wire
// codec, timed apart from the job.
double CodecNsPerRecord(const Workload& w, uint64_t seed) {
  const jet::shufflebench::RecordGenerator gen(ShuffleConfig(w, seed));
  constexpr int kRecords = 50'000;
  std::vector<jet::core::Item> items;
  items.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    auto rec = gen.MakeRecord(i);
    const uint64_t h = jet::shufflebench::RecordGenerator::KeyHash(rec);
    items.push_back(jet::core::Item::Data<jet::shufflebench::Record>(std::move(rec), i, h));
  }
  const int64_t t0 = MonoNs();
  jet::BytesWriter writer;
  for (const auto& item : items) Check(jet::net::EncodeItem(item, &writer), "encoding");
  jet::Bytes bytes = writer.Take();
  jet::BytesReader reader(bytes);
  int64_t decoded = 0;
  for (int i = 0; i < kRecords; ++i) {
    jet::core::Item out;
    Check(jet::net::DecodeItem(&reader, &out), "decoding");
    decoded += out.payload.As<jet::shufflebench::Record>().payload.size() > 0 ? 1 : 0;
  }
  const int64_t ns = MonoNs() - t0;
  if (decoded != kRecords) Die("codec round trip lost records");
  return static_cast<double>(ns) / kRecords;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

int64_t ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) return std::atoll(line.c_str() + n);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int workers = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workers") {
      a.workers = std::atoi(v.c_str());
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.seconds < 1) Die("--seconds must be at least 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  auto workload = WorkloadNamed(args.workload);
  if (!workload.has_value()) Die("unknown workload '" + args.workload + "'");
  Workload w = *workload;
  if (args.workers > 0) w.workers = args.workers;

  // Inputs and references, built before the memory baseline.
  const auto paced_events = static_cast<int64_t>(args.seconds * w.rate);
  auto make_ref = [&](int64_t events) {
    return w.shuffle ? ShuffleReference(w, args.seed, events)
                     : NexmarkReference(w, args.seed, events);
  };
  const Reference paced_ref = make_ref(paced_events);
  const Reference replay_ref = make_ref(w.replay_events);
  // Slack: one partly used chunk per sink instance, plus room to see extras.
  ResultLog log(static_cast<size_t>(std::max(paced_ref.expected, replay_ref.expected) +
                                    16 * ResultLog::kChunk));
  // Filled with a non-zero value so its pages are resident now.
  std::vector<int32_t> latency_scratch(log.entries().size(), -1);
  const int64_t baseline_kb = ReadStatusKb("VmRSS:");

  // --- paced phase: set-up, then latency ---------------------------------
  // The first engine set-up of the process, so a cold one.
  const int64_t t_setup = MonoNs();
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;
  Engine engine(w);
  Phase paced;
  paced.anchor = std::make_shared<Anchor>(w.slide, w.wm_interval, 0, /*replay=*/false);
  if (w.shuffle) {
    BuildShuffle(w, args.seed, paced_events, &log, tracer.get(), &paced);
  } else {
    BuildQ5(w, args.seed, paced_events, &log, tracer.get(), &paced);
  }
  engine.Start(&paced.dag, 1);
  const int64_t t_started = MonoNs();
  const double setup_s = static_cast<double>(t_started - t_setup) / 1e9;
  engine.Join();
  const int64_t paced_hwm_kb = ReadStatusKb("VmHWM:");

  const Verdict paced_verdict = Verify(w, paced_ref, &log);
  const Latency lat = MeasureLatency(w, paced_ref, &log, &latency_scratch);
  const RegistryReadings reg = ReadRegistry(engine.MetricSnapshots());
  const int64_t snapshots = engine.SnapshotsTaken();
  const int64_t messages = engine.MessagesSent();
  const auto grid_usage =
      engine.grid() != nullptr ? engine.grid()->Usage() : jet::imdg::GridUsage{};
  const int64_t grid_puts = engine.grid() != nullptr ? engine.grid()->stats().puts : 0;
  const int64_t paced_late = paced.late->load();

  // --- replay phase: throughput, in rounds spread over a few seconds -------
  Verdict replay_verdict;
  int64_t replay_late = 0;
  int64_t replay_ns = 0;
  std::vector<double> chunk_seconds;
  const int64_t chunk = w.replay_events / kReplayChunks;
  for (int round = 0; round < kReplayRounds; ++round) {
    log.Reset();
    // Wrapped like the paced phase, so a traced run pays the wrappers'
    // cost in its throughput too; only the paced figures are reported.
    std::unique_ptr<Tracer> replay_tracer = args.trace ? std::make_unique<Tracer>() : nullptr;
    Phase replay;
    const Nanos replay_span = w.replay_events * PeriodOf(w.rate);
    replay.anchor = std::make_shared<Anchor>(w.slide, w.wm_interval, replay_span, true);
    replay.progress = std::make_shared<Progress>(w.replay_events, chunk);
    if (w.shuffle) {
      BuildShuffle(w, args.seed, w.replay_events, &log, replay_tracer.get(), &replay);
    } else {
      BuildQ5(w, args.seed, w.replay_events, &log, replay_tracer.get(), &replay);
    }
    const int64_t t_replay = MonoNs();
    engine.Start(&replay.dag, 2 + round);
    engine.Join();
    replay_ns += MonoNs() - t_replay;
    std::vector<double> round_seconds;
    replay.progress->AppendChunkSeconds(&round_seconds);
    std::fprintf(stderr, "perfbench replay round %d: %.0f events/s\n", round,
                 static_cast<double>(chunk) / Median(round_seconds));
    chunk_seconds.insert(chunk_seconds.end(), round_seconds.begin(), round_seconds.end());
    replay_verdict.Add(Verify(w, replay_ref, &log));
    replay_late += replay.late->load();
  }
  const double replay_s = static_cast<double>(replay_ns) / 1e9;
  const double median_chunk_s = Median(chunk_seconds);
  const double throughput = median_chunk_s > 0 ? static_cast<double>(chunk) / median_chunk_s : 0;
  const double peak_rss_mb =
      static_cast<double>(ReadStatusKb("VmHWM:") - baseline_kb) / 1024.0;

  // --- outbox probe: a known fault, the same in every run -----------------
  const ProbeResult probe = RunOutboxProbe();

  // --- traced only: the paced phase again, with the default rebalancer ----
  // Its figures are unbounded per-layer readings; its results are checked,
  // and a fault makes the run incorrect, but they are not counted in
  // attempted/failed, which stay the same as in an untraced run.
  Latency rebalanced;
  int64_t migrated = 0;
  bool rebalanced_ok = true;
  if (args.trace && w.rebalanced_phase) {
    log.Reset();
    Phase again;
    again.anchor = std::make_shared<Anchor>(w.slide, w.wm_interval, 0, /*replay=*/false);
    BuildQ5(w, args.seed, paced_events, &log, nullptr, &again);
    engine.Start(&again.dag, 2 + kReplayRounds, /*rebalance=*/true);
    engine.Join();
    const Verdict v = Verify(w, paced_ref, &log);
    rebalanced_ok = v.failed() == 0 && again.late->load() == 0;
    rebalanced = MeasureLatency(w, paced_ref, &log, &latency_scratch);
    for (const auto& snap : engine.MetricSnapshots()) {
      if (snap.id.name == "scheduler.migrated_tasklets") migrated += snap.value;
    }
    std::fprintf(stderr,
                 "perfbench rebalanced paced phase: %" PRId64 " windows, %" PRId64
                 " failed, late=%" PRId64 ", %" PRId64 " tasklet migrations\n",
                 v.windows, v.failed(), again.late->load(), migrated);
  }

  // --- report ------------------------------------------------------------
  const int64_t attempted = paced_verdict.attempted() + replay_verdict.attempted() +
                            probe.verdict.attempted();
  const int64_t failed =
      paced_verdict.failed() + replay_verdict.failed() + probe.verdict.failed();
  // The probe's late drops are its known fault, counted in `failed`.
  bool correct = paced_late == 0 && replay_late == 0 && lat.samples > 0 && rebalanced_ok;
  std::fprintf(stderr,
               "perfbench %s seed=%" PRIu64 " paced: %" PRId64 " events, %" PRId64
               " results expected, missing=%" PRId64 " dup=%" PRId64 " wrong=%" PRId64
               " late=%" PRId64 "\n",
               w.name.c_str(), args.seed, paced_ref.events, paced_verdict.expected,
               paced_verdict.missing, paced_verdict.duplicated, paced_verdict.wrong,
               paced_late);
  std::fprintf(stderr,
               "perfbench paced: %" PRId64 " windows, %" PRId64 " failed; replay: %" PRId64
               " windows, %" PRId64 " failed\n",
               paced_verdict.windows, paced_verdict.failed_windows, replay_verdict.windows,
               replay_verdict.failed_windows);
  std::fprintf(stderr,
               "perfbench outbox probe: %" PRId64 " of %" PRId64
               " windows failed, window 1 count %" PRId64 " (expected %d), late=%" PRId64 "\n",
               probe.verdict.failed(), probe.verdict.attempted(), probe.window1_count,
               kProbeFanOut, probe.late);
  std::fprintf(stderr,
               "perfbench replay: %d x %" PRId64 " events in %.3f s, %" PRId64
               " results expected, missing=%" PRId64 " dup=%" PRId64 " wrong=%" PRId64
               " late=%" PRId64 "\n",
               kReplayRounds, replay_ref.events, replay_s, replay_verdict.expected, replay_verdict.missing,
               replay_verdict.duplicated, replay_verdict.wrong, replay_late);
  // Tail figures: reference only (they follow host hiccups), with their
  // sample and window counts.
  std::printf("{\"reference\": {\"all_p50_ms\": %.6f, \"all_p99_ms\": %.6f, "
              "\"p99.9_ms\": %.6f, \"p99.99_ms\": %.6f, \"max_ms\": %.6f, "
              "\"samples\": %" PRId64 ", \"windows\": %" PRId64 ", \"blocks\": %" PRId64
              ", \"replay_s\": %.6f, \"replay_mean_eps\": %.6f, \"snapshots\": %" PRId64
              ", \"probe_failed\": %" PRId64 ", \"probe_late\": %" PRId64
              ", \"paced_peak_rss_mb\": %.6f}}\n",
              lat.all_p50_ms, lat.all_p99_ms, lat.p999_ms, lat.p9999_ms, lat.max_ms,
              lat.samples, lat.windows, lat.blocks, replay_s,
              static_cast<double>(kReplayRounds * w.replay_events) / replay_s, snapshots,
              probe.verdict.failed(), probe.late,
              static_cast<double>(paced_hwm_kb - baseline_kb) / 1024.0);

  JsonMetrics e2e;
  e2e.Add("setup_s", setup_s, "s");
  e2e.Add("latency_p50_ms", lat.p50_ms, "ms");
  e2e.Add("latency_p99_ms", lat.p99_ms, "ms");
  e2e.Add("throughput_eps", throughput, "1/s");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  JsonMetrics layers;
  if (tracer != nullptr) {
    const LayerStats source = tracer->Total(Role::kSource);
    const LayerStats fused = tracer->Total(Role::kFused);
    const LayerStats acc = tracer->Total(Role::kAccumulate);
    const LayerStats comb = tracer->Total(Role::kCombine);
    const LayerStats sink = tracer->Total(Role::kSink);
    // The first stage records lag: the fused filter (Q5) or the matcher
    // behind the exchange (shuffle).
    const LayerStats& first = w.shuffle ? acc : fused;
    const double codec_ns = w.shuffle ? CodecNsPerRecord(w, args.seed) : 0.0;
    layers.Add("source.busy_ms", static_cast<double>(source.busy_ns) / 1e6, "ms");
    layers.Add("source.lag_p99_us",
               static_cast<double>(first.lag_ns.ValueAtQuantile(0.99)) / 1e3, "us");
    layers.Add("pipeline.fused_busy_ms", static_cast<double>(fused.busy_ns) / 1e6, "ms");
    layers.Add("core.accumulate.busy_ms", static_cast<double>(acc.busy_ns) / 1e6, "ms");
    layers.Add("core.accumulate.items_in", static_cast<double>(acc.items_in), "count");
    layers.Add("core.accumulate.frames_out", static_cast<double>(acc.items_out), "count");
    layers.Add("core.combine.busy_ms", static_cast<double>(comb.busy_ns) / 1e6, "ms");
    layers.Add("core.combine.emit_p99_us",
               static_cast<double>(comb.emit_call_ns.ValueAtQuantile(0.99)) / 1e3, "us");
    layers.Add("core.combine.results_out", static_cast<double>(comb.items_out), "count");
    layers.Add("core.sched_delay_p99_us", reg.sched_delay_p99_us, "us");
    layers.Add("core.overbudget_calls", static_cast<double>(reg.overbudget_calls), "count");
    layers.Add("core.worker_busy_ms", reg.worker_busy_ms, "ms");
    layers.Add("sink.busy_ms", static_cast<double>(sink.busy_ns) / 1e6, "ms");
    layers.Add("sink.items_in", static_cast<double>(sink.items_in), "count");
    layers.Add("net.sender.busy_ms", reg.sender_busy_ms, "ms");
    layers.Add("net.receiver.busy_ms", reg.receiver_busy_ms, "ms");
    layers.Add("net.items_sent", static_cast<double>(reg.items_sent), "count");
    layers.Add("net.batch_size_mean", reg.batch_size_mean, "count");
    layers.Add("net.messages_sent", static_cast<double>(messages), "count");
    layers.Add("net.codec_ns_per_record", codec_ns, "ns");
    layers.Add("imdg.snapshots", static_cast<double>(snapshots), "count");
    layers.Add("imdg.snapshot_save_ms", static_cast<double>(tracer->SaveNs()) / 1e6, "ms");
    layers.Add("imdg.snapshot_state_mb",
               static_cast<double>(grid_usage.bytes_approx) / (1024.0 * 1024.0), "MB");
    layers.Add("imdg.puts", static_cast<double>(grid_puts), "count");
    layers.Add("core.rebalanced.latency_p50_ms", rebalanced.p50_ms, "ms");
    layers.Add("core.rebalanced.latency_p99_ms", rebalanced.p99_ms, "ms");
    layers.Add("core.rebalanced.migrations", static_cast<double>(migrated), "count");

    // Totals reached by independent paths.
    const int64_t expected_results = paced_verdict.expected;
    auto expect = [&correct](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "perfbench: traced check failed: %s\n", what);
        correct = false;
      }
    };
    expect(acc.items_in == paced_ref.counted,
           "core.accumulate.items_in != reference event count");
    expect(comb.items_out == sink.items_in, "core.combine.results_out != sink.items_in");
    expect(sink.items_in == expected_results, "sink.items_in != expected results");
    if (w.shuffle) {
      expect(reg.items_sent == paced_ref.remote_records,
             "net.items_sent != records routed to the other member");
    }
  }
  std::printf("{\"e2e\": %s}\n", e2e.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? layers.str().c_str() : e2e.str().c_str());
  return 0;
}
