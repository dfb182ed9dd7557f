#include "engine/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scn {
namespace {

using engine::Batch;

// A plan revisits each row once per touching gate, so the walk runs the
// WHOLE plan over one lane block before the next, and the revisits hit
// cache. On a Batch's long rows a block is 256 lanes (2 KB row segments;
// 64-lane blocks at a 4096-lane stride measured 1.9x slower). A packed
// block is 64 lanes at stride 64: 16 KB of Count at width 32, or 8 KB of
// int32_t, so its pack, every layer and its unpack all run in L1.
constexpr std::size_t kBatchBlock = 256;
constexpr std::size_t kPackBlock = 64;

// A vector shorter or longer than the plan would be walked past its end, so
// every entry checks lengths in all builds: once per call for one vector,
// once per vector for a batch.
void check_length(const char* entry, const ExecutionPlan& plan,
                  std::size_t got) {
  if (got == plan.width()) return;
  throw std::invalid_argument(std::string(entry) + ": input of length " +
                              std::to_string(got) + " for a plan of width " +
                              std::to_string(plan.width()));
}

// Lane-major rows of T: lane j of physical wire w lives at
// base[w * stride + j]. A Batch is stride = batch_size; a single vector is
// stride 1, lane 0; a packed block is stride kPackBlock. Rows are Count,
// except that a packed comparator block whose values all fit in 32 bits is
// walked as int32_t: a compare-exchange only compares and moves, so the
// narrow walk yields the same values, and a vector holds twice the lanes.
template <typename T>
struct Rows {
  T* base;
  std::size_t stride;

  [[nodiscard]] T* row(Wire w) const {
    return base + static_cast<std::size_t>(w) * stride;
  }
};

// One layer over lanes [b, e) of one cache block. Every comparator gate —
// width-2 directly, wider ones via their compile-time compare-exchange
// expansion — is a branchless min/max over two row segments, so the lane
// loops auto-vectorize with no gather or scratch. A gate's two wires are
// distinct, so its rows never overlap (__restrict drops the alias check).
// A wide balancer is irreducible (a width-p balancer is not a network of
// 2-balancers), so it runs as sum-then-redistribute, both phases row-wise
// over the lanes. The tables and bounds are read into locals first: an
// int32_t row store may alias the Wire (int32_t) tables, which would
// otherwise be reloaded after every lane loop.
template <Semantics S, std::size_t kBlock, typename T>
[[gnu::always_inline]] inline void run_layer(
    const ExecutionPlan& plan, const ExecutionPlan::Layer& layer, Rows<T> rows,
    std::size_t b, std::size_t e) {
  static_assert(S == Semantics::kComparator || std::is_same_v<T, Count>,
                "balancers add, so counts are walked at full width");
  const Wire* const pairs = plan.pair_wires().data();
  const std::uint32_t pair_end = layer.pair_end;
  for (std::uint32_t k = layer.pair_begin; k < pair_end; ++k) {
    T* __restrict hi = rows.row(pairs[2 * k]);
    T* __restrict lo = rows.row(pairs[2 * k + 1]);
    for (std::size_t j = b; j < e; ++j) {
      if constexpr (S == Semantics::kComparator) {
        engine::pair_sort_kernel(hi[j], lo[j]);
      } else {
        engine::pair_count_kernel(hi[j], lo[j]);
      }
    }
  }
  if constexpr (S == Semantics::kComparator) {
    const Wire* const ces = plan.ce_wires().data();
    const std::uint32_t ce_end = layer.ce_end;
    for (std::uint32_t k = layer.ce_begin; k < ce_end; ++k) {
      T* __restrict hi = rows.row(ces[2 * k]);
      T* __restrict lo = rows.row(ces[2 * k + 1]);
      for (std::size_t j = b; j < e; ++j) {
        engine::pair_sort_kernel(hi[j], lo[j]);
      }
    }
  } else {
    const auto& wides = plan.wide_gates();
    const std::size_t n = e - b;
    Count totals[kBlock];
    for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
      const ExecutionPlan::WideGate wg = wides[g];
      const Wire* ws = plan.wide_wires().data() + wg.first;
      const auto p = static_cast<Count>(wg.width);
      std::fill(totals, totals + n, Count{0});
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        const Count* row = rows.row(ws[i]) + b;
        for (std::size_t j = 0; j < n; ++j) totals[j] += row[j];
      }
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        Count* row = rows.row(ws[i]) + b;
        const Count bias = p - 1 - static_cast<Count>(i);
        // counts are non-negative, so totals[j] + bias >= 0: plain division
        // implements ceil((total - i) / p).
        for (std::size_t j = 0; j < n; ++j) row[j] = (totals[j] + bias) / p;
      }
    }
  }
}

// One thread's per-layer walk time while the shared tracer records, summed
// over every block it runs and recorded as one `engine.layer` event per
// layer, laid end to end from its start: one event set per thread however
// many blocks it took.
class LayerTimes {
 public:
  explicit LayerTimes(const ExecutionPlan& plan) {
    if constexpr (obs::compiled_in()) {
      if (obs::Tracer::shared().active()) {
        ns_.assign(plan.layers().size(), 0);
        start_ = obs::Tracer::shared().now_ns();
      }
    }
  }

  [[nodiscard]] bool on() const { return !ns_.empty(); }
  void add(std::size_t layer, std::uint64_t ns) { ns_[layer] += ns; }

  void record(const ExecutionPlan& plan, std::size_t lanes) const {
    std::uint64_t at = start_;
    for (std::size_t i = 0; i < ns_.size(); ++i) {
      const ExecutionPlan::Layer& layer = plan.layers()[i];
      obs::Tracer::shared().record_complete(
          "layer " + std::to_string(i), "engine.layer", at, ns_[i],
          "{\"pairs\":" + std::to_string(layer.pair_end - layer.pair_begin) +
              ",\"ce\":" + std::to_string(layer.ce_end - layer.ce_begin) +
              ",\"wide\":" +
              std::to_string(layer.wide_end - layer.wide_begin) +
              ",\"lanes\":" + std::to_string(lanes) + "}");
      at += ns_[i];
    }
  }

 private:
  std::vector<std::uint64_t> ns_;  // empty unless a trace records
  std::uint64_t start_ = 0;
};

// The one layer walk: the whole plan over each kBlock-lane block of
// [lane_begin, lane_end), each layer's time added to `times` while a trace
// records. It is inlined into every entry point, so lane bounds that are
// constants there fold into constant-trip lane loops: at a single vector's
// one lane each gate compiles to a plain scalar compare-exchange, and a
// full packed block runs kPackBlock-lane loops with no remainder.
template <Semantics S, std::size_t kBlock, typename T>
[[gnu::always_inline]] inline void run_lanes(const ExecutionPlan& plan,
                                             Rows<T> rows,
                                             std::size_t lane_begin,
                                             std::size_t lane_end,
                                             LayerTimes& times) {
  using Clock = std::chrono::steady_clock;
  const auto& layers = plan.layers();
  const bool traced = times.on();
  for (std::size_t b = lane_begin; b < lane_end; b += kBlock) {
    const std::size_t e = std::min(b + kBlock, lane_end);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      run_layer<S, kBlock, T>(plan, layers[i], rows, b, e);
      if (traced) {
        times.add(i, static_cast<std::uint64_t>(
                         std::chrono::nanoseconds(Clock::now() - t0).count()));
      }
    }
  }
}

// One lane range on one thread, traced as one event set.
template <Semantics S, std::size_t kBlock>
[[gnu::always_inline]] inline void run_range(const ExecutionPlan& plan,
                                             Rows<Count> rows,
                                             std::size_t lane_begin,
                                             std::size_t lane_end) {
  LayerTimes times(plan);
  run_lanes<S, kBlock>(plan, rows, lane_begin, lane_end, times);
  times.record(plan, lane_end - lane_begin);
}

template <Semantics S>
void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
               ThreadPool* pool, std::size_t grain) {
  check_length(S == Semantics::kComparator ? "run_plan_batch"
                                           : "run_plan_counts_batch",
               plan, batch.width());
  const Rows<Count> rows{batch.data(), batch.batch_size()};
  const auto stripe = [&](std::size_t begin, std::size_t end) {
    run_range<S, kBatchBlock>(plan, rows, begin, end);
  };
  // Lanes are independent, so results cannot depend on where the stripes
  // fall.
  if (pool == nullptr) {
    stripe(0, batch.batch_size());
  } else {
    pool->parallel_for(batch.batch_size(), grain, stripe);
  }
}

// The calling thread's block buffers: room for one block of Count and one
// of int32_t in a single allocation, each starting on a cache line so that
// no vector load of a kPackBlock-lane row straddles two lines. The two are
// disjoint, so no byte is ever accessed as both types. The allocation only
// grows, so after a thread's first block at a width the packed entries
// allocate nothing but their outputs.
struct BlockBuffers {
  Count* wide;
  std::int32_t* narrow;
};

BlockBuffers block_buffers(std::size_t cells) {
  constexpr std::size_t kLine = 64;
  const auto lines = [](std::size_t bytes) {
    return (bytes + kLine - 1) / kLine * kLine;
  };
  const std::size_t wide_bytes = lines(cells * sizeof(Count));
  const std::size_t bytes = wide_bytes + lines(cells * sizeof(std::int32_t));
  thread_local std::unique_ptr<std::byte[]> storage;
  thread_local std::size_t capacity = 0;
  if (capacity < bytes) {
    storage = std::make_unique_for_overwrite<std::byte[]>(bytes + kLine);
    capacity = bytes;
  }
  void* base = storage.get();
  std::size_t space = capacity + kLine;
  auto* line = static_cast<std::byte*>(std::align(kLine, bytes, base, space));
  return {std::launder(reinterpret_cast<Count*>(line)),
          std::launder(reinterpret_cast<std::int32_t*>(line + wide_bytes))};
}

// Packs lanes [b, b + n) of `inputs` into a block's rows as T. Returns
// whether every value round-trips through T, which always holds for Count.
template <typename T>
bool pack_block(std::span<const std::vector<Count>> inputs, std::size_t b,
                std::size_t n, Rows<T> rows) {
  Count mismatch = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::vector<Count>& in = inputs[b + j];
    for (std::size_t w = 0; w < in.size(); ++w) {
      const T x = static_cast<T>(in[w]);
      rows.base[w * kPackBlock + j] = x;
      mismatch |= static_cast<Count>(x) ^ in[w];
    }
  }
  return mismatch == 0;
}

// Pack -> walk -> unpack per block on the thread's buffers. Threads take
// blocks from one counter, so a slow thread delays the call by one block,
// not a stripe. A comparator block is packed as int32_t first and walked
// at that width if every value fits, else repacked and walked as Count;
// counts are always walked as Count. The outputs are allocated on the
// caller (allocated on the workers, each malloc arena would keep its own
// freed chunks: peak RSS rose by a third), in block order while the other
// threads walk: the caller publishes how many lanes have their storage,
// and a thread unpacks a block once that frontier covers it. The caller
// only reserves; the unpacking thread sizes each output, so no line is
// zeroed on one CPU and written on another.
template <Semantics S>
std::vector<std::vector<Count>> run_packed(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  for (const std::vector<Count>& in : inputs) {
    check_length(S == Semantics::kComparator ? "plan_sort_batch"
                                             : "plan_count_batch",
                 plan, in.size());
  }
  const std::size_t width = plan.width();
  const std::size_t cells = width * kPackBlock;
  const std::size_t lanes = inputs.size();
  std::vector<std::vector<Count>> outs(lanes);
  const std::span<const Wire> order = plan.output_order();
  const std::size_t blocks = (lanes + kPackBlock - 1) / kPackBlock;
  std::atomic<std::size_t> allocated{0};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> threads{0};  // threads that ran a block
  std::atomic<std::size_t> narrow{0};   // blocks walked as int32_t
  const auto worker = [&](std::size_t chunk, std::size_t) {
    if (chunk == 0) {  // the caller's chunk
      for (std::size_t b = 0; b < lanes; b += kPackBlock) {
        const std::size_t e = std::min(b + kPackBlock, lanes);
        for (std::size_t j = b; j < e; ++j) outs[j].reserve(width);
        allocated.store(e, std::memory_order_release);
      }
    }
    const BlockBuffers buffers = block_buffers(cells);
    LayerTimes times(plan);
    std::size_t ran = 0;
    std::size_t ran_narrow = 0;
    // Walks a packed block of n lanes from lane b, then unpacks it.
    const auto walk_and_unpack = [&](auto rows, std::size_t b,
                                     std::size_t n) {
      if (n == kPackBlock) {
        run_lanes<S, kPackBlock>(plan, rows, 0, kPackBlock, times);
      } else {
        run_lanes<S, kPackBlock>(plan, rows, 0, n, times);
      }
      spin_until([&] {
        return allocated.load(std::memory_order_acquire) >= b + n;
      });
      for (std::size_t j = 0; j < n; ++j) {
        outs[b + j].resize(width);  // within capacity: no allocation
        Count* out = outs[b + j].data();
        for (std::size_t i = 0; i < width; ++i) {
          out[i] = static_cast<Count>(rows.row(order[i])[j]);
        }
      }
      ran += n;
    };
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < blocks; k = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t b = k * kPackBlock;
      const std::size_t n = std::min(kPackBlock, lanes - b);
      if constexpr (S == Semantics::kComparator) {
        const Rows<std::int32_t> rows{buffers.narrow, kPackBlock};
        if (pack_block(inputs, b, n, rows)) {
          walk_and_unpack(rows, b, n);
          ++ran_narrow;
          continue;
        }
      }
      const Rows<Count> rows{buffers.wide, kPackBlock};
      pack_block(inputs, b, n, rows);
      walk_and_unpack(rows, b, n);
    }
    if (ran > 0) threads.fetch_add(1, std::memory_order_relaxed);
    if (ran_narrow > 0) {
      narrow.fetch_add(ran_narrow, std::memory_order_relaxed);
    }
    times.record(plan, ran);
  };
  if (pool == nullptr) {
    worker(0, 1);
  } else {
    pool->parallel_for(std::min(pool->size(), blocks), 1, worker);
    SCNET_HISTOGRAM_RECORD("engine.batch.threads", threads.load());
  }
  if constexpr (S == Semantics::kComparator) {
    SCNET_HISTOGRAM_RECORD("engine.batch.narrow_blocks", narrow.load());
  }
  return outs;
}

std::vector<Count> in_output_order(const ExecutionPlan& plan,
                                   std::span<const Count> phys) {
  std::vector<Count> out;
  out.reserve(plan.width());
  for (const Wire w : plan.output_order()) {
    out.push_back(phys[static_cast<std::size_t>(w)]);
  }
  return out;
}

}  // namespace

void run_plan(const ExecutionPlan& plan, std::span<Count> values) {
  check_length("run_plan", plan, values.size());
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan");
  run_range<Semantics::kComparator, 1>(plan, Rows<Count>{values.data(), 1},
                                       0, 1);
}

std::vector<Count> plan_comparator_output(const ExecutionPlan& plan,
                                          std::span<const Count> input) {
  std::vector<Count> values(input.begin(), input.end());
  run_plan(plan, values);
  return in_output_order(plan, values);
}

void run_plan_counts(const ExecutionPlan& plan, std::span<Count> counts) {
  check_length("run_plan_counts", plan, counts.size());
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  SCNET_TRACE_SPAN("engine", "run_plan_counts");
  run_range<Semantics::kBalancer, 1>(plan, Rows<Count>{counts.data(), 1},
                                     0, 1);
}

std::vector<Count> plan_output_counts(const ExecutionPlan& plan,
                                      std::span<const Count> input) {
  std::vector<Count> counts(input.begin(), input.end());
  run_plan_counts(plan, counts);
  return in_output_order(plan, counts);
}

void run_plan_batch(const ExecutionPlan& plan, engine::Batch<Count>& batch,
                    ThreadPool* pool, std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_batch");
  run_batch<Semantics::kComparator>(plan, batch, pool, min_lanes_per_task);
}

void run_plan_counts_batch(const ExecutionPlan& plan,
                           engine::Batch<Count>& batch, ThreadPool* pool,
                           std::size_t min_lanes_per_task) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
  SCNET_TRACE_SPAN("engine", "run_plan_counts_batch");
  run_batch<Semantics::kBalancer>(plan, batch, pool, min_lanes_per_task);
}

std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_sort_batch");
  return run_packed<Semantics::kComparator>(plan, inputs, pool);
}

std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    ThreadPool* pool) {
  SCNET_COUNTER_ADD("engine.run.batch", 1);
  SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
  SCNET_TRACE_SPAN("engine", "plan_count_batch");
  return run_packed<Semantics::kBalancer>(plan, inputs, pool);
}

}  // namespace scn
