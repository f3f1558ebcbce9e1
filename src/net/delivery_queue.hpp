// Per-destination reliable delivery queue.
//
// The delivery half of the reliability layer: wsn and wse route Notify
// traffic through one of these instead of calling the sink transport
// directly. Each destination (a subscriber's sink address) gets a bounded
// FIFO drained by the shared ThreadPool — one drain task per destination at
// a time, so per-subscriber ordering is preserved while distinct
// subscribers deliver in parallel. A destination that fails
// `evict_after_consecutive_failures` whole call sequences in a row (each
// sequence already retried by the caller, typically a RetryingCaller) is
// evicted: its backlog is dead-lettered, further submits are rejected
// cheaply, and the eviction counter increments. Without a pool the queue
// delivers inline on the submitting thread — the historical synchronous
// behaviour, still with failure accounting and eviction.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/threadpool.hpp"
#include "net/virtual_network.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gs::net {

class DeliveryQueue {
 public:
  struct Config {
    /// Transport for deliveries; wrap in a RetryingCaller for retries.
    SoapCaller* caller = nullptr;
    /// Drain executor. Null = deliver inline during submit(). The pool must
    /// outlive the queue.
    common::ThreadPool* pool = nullptr;
    /// Backlog bound per destination; overflow dead-letters the message.
    std::size_t max_queued_per_destination = 64;
    /// Consecutive failed call sequences before a destination is evicted.
    /// 0 = never evict.
    int evict_after_consecutive_failures = 0;
    /// Telemetry hooks (all optional). `delivered`/`failures`/`deliver_us`
    /// count individual call sequences; `dead_letters` tallies every message
    /// that will never be delivered (failed, overflowed, or dropped by
    /// eviction); `evictions` counts destinations evicted.
    telemetry::Counter* delivered = nullptr;
    telemetry::Counter* failures = nullptr;
    telemetry::Histogram* deliver_us = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Counter* dead_letters = nullptr;
    /// Invoked (outside queue locks) when a destination is evicted.
    std::function<void(const std::string& destination)> on_evict{};
    /// Structured event sink for evictions and dead-letter drops (optional);
    /// events are tagged with `component` ("wsn.delivery", "wse.delivery").
    telemetry::EventLog* events = nullptr;
    std::string component = "delivery";
  };

  enum class Submit {
    kDelivered,  // inline mode: the call sequence succeeded
    kQueued,     // async mode: accepted onto the destination's backlog
    kRejected,   // failed inline, destination evicted, or backlog full
  };

  explicit DeliveryQueue(Config config);
  /// Drops any backlog and waits for in-flight drain tasks to finish.
  ~DeliveryQueue();

  DeliveryQueue(const DeliveryQueue&) = delete;
  DeliveryQueue& operator=(const DeliveryQueue&) = delete;

  /// Delivers (inline) or enqueues (pooled) one message to `destination`,
  /// which is also the address passed to the caller.
  Submit submit(const std::string& destination, soap::Envelope envelope);

  /// Blocks until every accepted message has been delivered or
  /// dead-lettered (async mode barrier; immediate when inline).
  void flush();

  bool evicted(const std::string& destination) const;
  /// Forgets a destination's failure history and eviction — the
  /// re-subscribe path.
  void reinstate(const std::string& destination);

  std::uint64_t dead_lettered() const;
  /// Total messages currently waiting across all destinations — the queue
  /// depth reported by the monitoring layer's health section.
  std::size_t queued() const;

 private:
  struct Route {
    std::deque<soap::Envelope> backlog;
    int consecutive_failures = 0;
    bool evicted = false;
    bool draining = false;  // a pool task currently owns this route
  };

  /// One call sequence; returns success. Never throws.
  bool deliver(const std::string& destination, const soap::Envelope& envelope);
  // Structured-event emitters; call outside mu_ (EventLog has its own lock,
  // and attrs formatting shouldn't extend the queue's critical sections).
  void dead_letter_event(const std::string& destination, const char* reason);
  void eviction_event(const std::string& destination, std::size_t dropped);
  void drain(const std::string& destination);
  /// Marks evicted, dead-letters the backlog; returns messages dropped.
  /// Caller holds mu_.
  std::size_t evict_locked(Route& route);

  Config config_;
  mutable std::mutex mu_;
  std::condition_variable cv_idle_;
  std::map<std::string, Route> routes_;
  std::uint64_t dead_lettered_ = 0;
  bool stopping_ = false;
};

}  // namespace gs::net
