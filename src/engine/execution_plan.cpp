#include "engine/execution_plan.h"

#include <cassert>

// The wide-gate compare-exchange expansion behind the plan's ce_wires table.
#include "opt/expand.h"

namespace scn {

ExecutionPlan compile_plan(const Network& net) {
  ExecutionPlan plan;
  plan.width_ = net.width();
  plan.gate_count_ = net.gate_count();
  plan.output_order_.assign(net.output_order().begin(),
                            net.output_order().end());
  const auto by_layer = net.layers();
  plan.layers_.reserve(by_layer.size());
  for (const auto& layer_gates : by_layer) {
    ExecutionPlan::Layer layer;
    layer.pair_begin = static_cast<std::uint32_t>(plan.pair_wires_.size() / 2);
    layer.wide_begin = static_cast<std::uint32_t>(plan.wide_gates_.size());
    // Two passes keep each layer's pair table contiguous regardless of how
    // pair and wide gates interleave in topological order.
    for (const std::size_t gi : layer_gates) {
      const auto ws = net.gate_wires(gi);
      if (ws.size() == 2) {
        plan.pair_wires_.push_back(ws[0]);
        plan.pair_wires_.push_back(ws[1]);
      }
    }
    layer.ce_begin = static_cast<std::uint32_t>(plan.ce_wires_.size() / 2);
    for (const std::size_t gi : layer_gates) {
      const auto ws = net.gate_wires(gi);
      if (ws.size() == 2) continue;
      assert(ws.size() > 2);  // width<2 gates are dropped by the builder
      ExecutionPlan::WideGate wg;
      wg.first = static_cast<std::uint32_t>(plan.wide_wires_.size());
      wg.width = static_cast<std::uint32_t>(ws.size());
      plan.wide_wires_.insert(plan.wide_wires_.end(), ws.begin(), ws.end());
      plan.wide_gates_.push_back(wg);
      if (wg.width > plan.max_wide_width_) plan.max_wide_width_ = wg.width;
      append_wide_gate_ce(ws, plan.ce_wires_);
    }
    layer.pair_end = static_cast<std::uint32_t>(plan.pair_wires_.size() / 2);
    layer.wide_end = static_cast<std::uint32_t>(plan.wide_gates_.size());
    layer.ce_end = static_cast<std::uint32_t>(plan.ce_wires_.size() / 2);
    plan.layers_.push_back(layer);
  }
  return plan;
}

}  // namespace scn
