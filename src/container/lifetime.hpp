// Lifetime management (the "Lifetime Management" box of paper Figure 1).
//
// WSRF's WS-ResourceLifetime gives resources scheduled termination times
// that services manipulate (the Grid-in-a-Box ReservationService "claim"
// extends them). WS-Transfer has no such concept, so its Grid-in-a-Box
// manages reservation lifetime manually — and leaks when clients forget
// (a finding this repository's tests assert).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/clock.hpp"

namespace gs::container {

/// Registry of scheduled destructions. Services register a termination
/// time and an on-destroy callback per resource; the container sweeps on
/// each request (and tests sweep manually with a ManualClock).
///
/// A sweep costs O(entries due): finite termination times are kept in a
/// deadline index, and the earliest one is published in an atomic, so a
/// sweep with nothing due is one clock read and one load, with no lock and
/// no walk over the (mostly kNever) resources.
class LifetimeManager {
 public:
  using Handle = std::uint64_t;
  static constexpr common::TimeMs kNever =
      std::numeric_limits<common::TimeMs>::max();

  explicit LifetimeManager(const common::Clock& clock) : clock_(clock) {}

  /// Schedules destruction at `termination_time` (kNever = only explicit).
  Handle schedule(common::TimeMs termination_time, std::function<void()> on_destroy);

  /// Moves the termination time (the ReservationService "claim" path).
  /// Returns false for an unknown/destroyed handle.
  bool set_termination_time(Handle handle, common::TimeMs termination_time);
  std::optional<common::TimeMs> termination_time(Handle handle) const;

  /// Destroys now: runs the callback and unregisters. False when unknown.
  bool destroy(Handle handle);
  /// Unregisters without running the callback.
  bool cancel(Handle handle);

  /// Destroys every entry whose termination time is at or before now.
  /// Returns the number destroyed.
  size_t sweep();

  size_t active() const;
  const common::Clock& clock() const noexcept { return clock_; }

 private:
  struct Entry {
    common::TimeMs termination_time;
    std::function<void()> on_destroy;
  };

  // Unregisters an entry and its deadline; called with mu_ held.
  void erase(std::map<Handle, Entry>::iterator it);
  // Publishes the earliest indexed deadline; called with mu_ held.
  void refresh_next_due();

  const common::Clock& clock_;
  mutable std::mutex mu_;
  std::map<Handle, Entry> entries_;
  // (termination time, handle) for every entry with a finite termination
  // time; kNever entries are never due and are not indexed.
  std::set<std::pair<common::TimeMs, Handle>> deadlines_;
  // deadlines_' earliest time, or kNever when it is empty. Written under
  // mu_, read without it by sweep().
  std::atomic<common::TimeMs> next_due_{kNever};
  Handle next_ = 1;
};

/// Strictly parses a client-supplied lifetime field (milliseconds, an
/// optionally-signed decimal integer, nothing else). Throws
/// soap::SoapFault("Sender", ...) on malformed text — client garbage must
/// come back as a fault envelope, never escape as std::invalid_argument
/// from std::stoll (which also silently accepted trailing junk).
/// Callers interpret the value (relative offset vs absolute) and handle
/// their own "infinity"/"infinite" keyword before calling.
common::TimeMs parse_lifetime_ms(const std::string& text);

}  // namespace gs::container
