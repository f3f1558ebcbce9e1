#include "container/lifetime.hpp"

#include <charconv>
#include <vector>

#include "soap/envelope.hpp"

namespace gs::container {

common::TimeMs parse_lifetime_ms(const std::string& text) {
  common::TimeMs value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [p, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || p != end || text.empty()) {
    throw soap::SoapFault("Sender", "malformed lifetime '" + text + "'");
  }
  return value;
}

LifetimeManager::Handle LifetimeManager::schedule(
    common::TimeMs termination_time, std::function<void()> on_destroy) {
  std::lock_guard lock(mu_);
  Handle handle = next_++;
  entries_[handle] = {termination_time, std::move(on_destroy)};
  if (termination_time != kNever) {
    deadlines_.emplace(termination_time, handle);
    refresh_next_due();
  }
  return handle;
}

bool LifetimeManager::set_termination_time(Handle handle,
                                           common::TimeMs termination_time) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  common::TimeMs& current = it->second.termination_time;
  if (current != kNever) deadlines_.erase({current, handle});
  current = termination_time;
  if (current != kNever) deadlines_.emplace(current, handle);
  refresh_next_due();
  return true;
}

std::optional<common::TimeMs> LifetimeManager::termination_time(
    Handle handle) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return std::nullopt;
  return it->second.termination_time;
}

bool LifetimeManager::destroy(Handle handle) {
  std::function<void()> callback;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) return false;
    callback = std::move(it->second.on_destroy);
    erase(it);
  }
  if (callback) callback();
  return true;
}

bool LifetimeManager::cancel(Handle handle) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  erase(it);
  return true;
}

size_t LifetimeManager::sweep() {
  common::TimeMs now = clock_.now();
  // The common case: nothing is due, so no lock is taken.
  if (now < next_due_.load(std::memory_order_acquire)) return 0;
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard lock(mu_);
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      auto it = entries_.find(deadlines_.begin()->second);
      callbacks.push_back(std::move(it->second.on_destroy));
      entries_.erase(it);
      deadlines_.erase(deadlines_.begin());
    }
    refresh_next_due();
  }
  for (auto& cb : callbacks) {
    if (cb) cb();
  }
  return callbacks.size();
}

void LifetimeManager::erase(std::map<Handle, Entry>::iterator it) {
  if (it->second.termination_time != kNever) {
    deadlines_.erase({it->second.termination_time, it->first});
    refresh_next_due();
  }
  entries_.erase(it);
}

void LifetimeManager::refresh_next_due() {
  next_due_.store(deadlines_.empty() ? kNever : deadlines_.begin()->first,
                  std::memory_order_release);
}

size_t LifetimeManager::active() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace gs::container
