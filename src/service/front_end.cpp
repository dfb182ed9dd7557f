#include "service/front_end.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "perf/thread_pool.h"

namespace scn {

TokenFrontEnd::TokenFrontEnd(ShardManager& shards)
    : TokenFrontEnd(shards, Runtime::shared(), Options{}) {}

TokenFrontEnd::TokenFrontEnd(ShardManager& shards, Runtime& rt)
    : TokenFrontEnd(shards, rt, Options{}) {}

TokenFrontEnd::TokenFrontEnd(ShardManager& shards, Runtime& rt,
                             const Options& options)
    : shards_(shards),
      rt_(rt),
      options_(options),
      enq_counter_(&rt.metrics().counter("service.enqueued")),
      drain_counter_(&rt.metrics().counter("service.drained")),
      batch_counter_(&rt.metrics().counter("service.batches")),
      batch_hist_(&rt.metrics().histogram("service.batch.tokens")) {
  if (options_.queue_capacity == 0 || options_.max_batch == 0 ||
      options_.max_drainers == 0) {
    throw std::invalid_argument(
        "TokenFrontEnd options must all be at least 1");
  }
  ring_.resize(options_.queue_capacity);
}

TokenFrontEnd::~TokenFrontEnd() { drain(); }

void TokenFrontEnd::enqueue(std::uint32_t count) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  not_full_.wait(lk, [&] { return size_ < ring_.size(); });
  ring_[(head_ + size_) % ring_.size()] = count;
  ++size_;
  enqueued_.fetch_add(count, std::memory_order_acq_rel);
  enq_counter_->add(count);
  if (options_.auto_drain && active_drainers_ < options_.max_drainers) {
    schedule_drainer_locked();
  }
  lk.unlock();
  // drain() helpers park on drained_cv_ when the queue looks empty; new
  // work must wake them even when no drain task is running (auto_drain
  // off, or all drainer slots busy inside route()).
  drained_cv_.notify_all();
}

bool TokenFrontEnd::try_enqueue(std::uint32_t count) {
  if (count == 0) return true;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (size_ >= ring_.size()) return false;
    ring_[(head_ + size_) % ring_.size()] = count;
    ++size_;
    enqueued_.fetch_add(count, std::memory_order_acq_rel);
    enq_counter_->add(count);
    if (options_.auto_drain && active_drainers_ < options_.max_drainers) {
      schedule_drainer_locked();
    }
  }
  drained_cv_.notify_all();
  return true;
}

std::size_t TokenFrontEnd::pending_slots() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return size_;
}

std::uint64_t TokenFrontEnd::pop_batch_locked(
    std::unique_lock<std::mutex>& lk) {
  (void)lk;  // caller holds mu_
  std::uint64_t total = 0;
  const std::size_t take = std::min(size_, options_.max_batch);
  for (std::size_t i = 0; i < take; ++i) {
    total += ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --size_;
  }
  return total;
}

void TokenFrontEnd::schedule_drainer_locked() {
  ++active_drainers_;
  rt_.pool().submit([this] { drain_task(); });
}

void TokenFrontEnd::drain_task() {
  for (;;) {
    std::uint64_t batch = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      batch = pop_batch_locked(lk);
      if (batch == 0) {
        --active_drainers_;
        // Wake drain() waiters: with this task gone the queue may now be
        // fully settled. Notify before unlocking: once the lock is free,
        // ~TokenFrontEnd's drain() may return and destroy the condvar.
        drained_cv_.notify_all();
        return;
      }
    }
    not_full_.notify_all();
    shards_.route(batch);
    drained_.fetch_add(batch, std::memory_order_acq_rel);
    drain_counter_->add(batch);
    batch_counter_->add(1);
    batch_hist_->record(batch);
  }
}

void TokenFrontEnd::drain() {
  for (;;) {
    std::uint64_t batch = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      batch = pop_batch_locked(lk);
      if (batch == 0) {
        if (active_drainers_ == 0) break;
        // A drain task still holds a popped batch inside route(); wait for
        // it to finish or for new work to help with.
        drained_cv_.wait(lk,
                         [&] { return size_ > 0 || active_drainers_ == 0; });
        continue;
      }
    }
    not_full_.notify_all();
    shards_.route(batch);
    drained_.fetch_add(batch, std::memory_order_acq_rel);
    drain_counter_->add(batch);
    batch_counter_->add(1);
    batch_hist_->record(batch);
  }
  shards_.quiesce();
}

}  // namespace scn
