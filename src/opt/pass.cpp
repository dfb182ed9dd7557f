#include "opt/pass.h"

#include <cassert>
#include <chrono>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/passes.h"

namespace scn {

const char* to_string(Semantics semantics) {
  switch (semantics) {
    case Semantics::kComparator:
      return "comparator";
    case Semantics::kBalancer:
      return "balancer";
  }
  return "?";
}

const char* to_string(PassLevel level) {
  switch (level) {
    case PassLevel::kNone:
      return "none";
    case PassLevel::kDefault:
      return "default";
  }
  return "?";
}

std::optional<PassLevel> parse_pass_level(std::string_view s) {
  if (s == "none") return PassLevel::kNone;
  if (s == "default") return PassLevel::kDefault;
  return std::nullopt;
}

std::size_t PipelineResult::gates_removed() const {
  std::size_t removed = 0;
  for (const PassStats& s : passes) {
    if (s.applied && s.gates_after < s.gates_before) {
      removed += s.gates_before - s.gates_after;
    }
  }
  return removed;
}

std::uint32_t PipelineResult::layers_removed() const {
  if (passes.empty()) return 0;
  const std::uint32_t before = passes.front().depth_before;
  const std::uint32_t after = passes.back().depth_after;
  return after < before ? before - after : 0;
}

std::string PipelineResult::summary() const {
  std::ostringstream out;
  for (const PassStats& s : passes) {
    out << s.name << ": ";
    if (!s.applied) {
      out << "skipped\n";
      continue;
    }
    out << "gates " << s.gates_before << "->" << s.gates_after << ", depth "
        << s.depth_before << "->" << s.depth_after << "\n";
  }
  return out.str();
}

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

PipelineResult PassManager::run(const Network& net,
                                const PassOptions& opts) const {
  SCNET_COUNTER_ADD("opt.pipeline.runs", 1);
  SCNET_TRACE_SPAN("opt", "pipeline");
  PipelineResult result;
  result.network = net;
  result.passes.reserve(passes_.size());
  for (const auto& pass : passes_) {
    PassStats stats;
    stats.name = std::string(pass->name());
    stats.gates_before = result.network.gate_count();
    stats.depth_before = result.network.depth();
    if (!pass->applicable(result.network, opts)) {
      SCNET_COUNTER_ADD("opt.pass.skipped", 1);
      stats.gates_after = stats.gates_before;
      stats.depth_after = stats.depth_before;
      result.passes.push_back(std::move(stats));
      continue;
    }
    const std::uint64_t span_start_ns = obs::Tracer::shared().now_ns();
    const auto t0 = std::chrono::steady_clock::now();
    Network rewritten = pass->run(result.network, opts);
    const auto t1 = std::chrono::steady_clock::now();
    stats.applied = true;
    stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    stats.gates_after = rewritten.gate_count();
    stats.depth_after = rewritten.depth();
    SCNET_COUNTER_ADD("opt.pass.applied", 1);
    SCNET_HISTOGRAM_RECORD(
        "opt.pass.micros",
        static_cast<std::uint64_t>(stats.seconds * 1e6));
    // The pass span reuses the provenance timing PassManager already
    // measures, and carries the gate/depth deltas as span args.
    if constexpr (obs::compiled_in()) {
      if (obs::Tracer::shared().active()) {
        std::ostringstream args;
        args << "{\"gates_before\":" << stats.gates_before
             << ",\"gates_after\":" << stats.gates_after
             << ",\"depth_before\":" << stats.depth_before
             << ",\"depth_after\":" << stats.depth_after << "}";
        obs::Tracer::shared().record_complete(
            stats.name, "opt.pass", span_start_ns,
            static_cast<std::uint64_t>(stats.seconds * 1e9), args.str());
      }
    }
    assert(rewritten.width() == result.network.width());
    assert(rewritten.validate().empty());
    assert(stats.depth_after <= stats.depth_before);
    result.network = std::move(rewritten);
    result.passes.push_back(std::move(stats));
  }
  return result;
}

PassManager make_pass_pipeline(PassLevel level) {
  PassManager pm;
  if (level == PassLevel::kNone) return pm;
  pm.add(make_relayer_pass())
      .add(make_dedup_adjacent_pass())
      .add(make_zero_one_elim_pass())
      .add(make_relayer_pass());
  return pm;
}

PipelineResult optimize_network(const Network& net, PassLevel level,
                                const PassOptions& opts) {
  return make_pass_pipeline(level).run(net, opts);
}

}  // namespace scn
