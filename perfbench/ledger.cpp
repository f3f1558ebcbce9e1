#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

struct Frame {
  Layer in;
  Layer out;
  std::int64_t start;
  std::int64_t child_ns = 0;    // total duration of direct children
  std::int64_t first_child = -1;  // start of the first direct child
};

struct ThreadState {
  bool traced = false;
  LayerTimes self{};
  std::vector<Frame> stack;
};

thread_local ThreadState tl_state;
ClockFn g_clock = &steady_now_ns;

}  // namespace

const char* layer_metric(Layer layer) {
  switch (layer) {
    case kProxy: return "proxy.self_us";
    case kNet: return "net.self_us";
    case kParse: return "xml.parse_us";
    case kSerialize: return "xml.serialize_us";
    case kChain: return "container.chain_us";
    case kVerify: return "security.verify_us";
    case kSign: return "security.sign_us";
    case kDispatch: return "container.dispatch_us";
    case kXmldb: return "xmldb.backend_us";
    case kDelivery: return "delivery.self_us";
    case kOutcall: return "gridbox.outcall_us";
    case kLayerCount: break;
  }
  return "?";
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_clock(ClockFn clock) { g_clock = clock ? clock : &steady_now_ns; }
std::int64_t now_ns() { return g_clock(); }

void Ledger::begin_op(bool traced) {
  tl_state.traced = traced;
  tl_state.self.fill(0.0);
  tl_state.stack.clear();
}

bool Ledger::tracing() { return tl_state.traced; }
const LayerTimes& Ledger::self_times() { return tl_state.self; }
std::size_t Ledger::depth() { return tl_state.stack.size(); }

Span::Span(Layer in, Layer out) : active_(tl_state.traced) {
  if (!active_) return;
  std::int64_t t = now_ns();
  if (!tl_state.stack.empty() && tl_state.stack.back().first_child < 0) {
    tl_state.stack.back().first_child = t;
  }
  tl_state.stack.push_back(Frame{in, out, t});
}

Span::~Span() {
  if (!active_) return;
  std::int64_t end = now_ns();
  Frame f = tl_state.stack.back();
  tl_state.stack.pop_back();
  std::int64_t duration = end - f.start;
  std::int64_t self = duration - f.child_ns;
  std::int64_t in_part = f.first_child < 0 ? self : f.first_child - f.start;
  tl_state.self[f.in] += static_cast<double>(in_part);
  tl_state.self[f.out] += static_cast<double>(self - in_part);
  if (!tl_state.stack.empty()) tl_state.stack.back().child_ns += duration;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}


std::size_t Histogram::index_of(std::uint64_t ns) {
  if (ns < kSub) return ns;
  int e = 63 - __builtin_clzll(ns);  // >= 7
  std::uint64_t mantissa = (ns >> (e - 7)) - kSub;
  return static_cast<std::size_t>((e - 6) * kSub) + mantissa;
}

void Histogram::add(std::int64_t ns) {
  if (buckets_.empty()) buckets_.assign(static_cast<std::size_t>(58 * kSub), 0);
  ++buckets_[index_of(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::value_at_rank(std::uint64_t rank) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    std::uint64_t n = buckets_[i];
    if (rank < seen + n) {
      double lower, width;
      if (i < kSub) {
        lower = static_cast<double>(i);
        width = 1;
      } else {
        int e = static_cast<int>(i / kSub) + 6;
        std::uint64_t mantissa = i % kSub;
        lower = std::ldexp(static_cast<double>(kSub + mantissa), e - 7);
        width = std::ldexp(1.0, e - 7);
      }
      return lower + width * (static_cast<double>(rank - seen) + 0.5) /
                         static_cast<double>(n);
    }
    seen += n;
  }
  return 0;
}

double Histogram::percentile_us(double p) const {
  if (count_ == 0) return 0;
  double rank = p / 100.0 * static_cast<double>(count_ - 1);
  auto lo = static_cast<std::uint64_t>(std::floor(rank));
  std::uint64_t hi = std::min(lo + 1, count_ - 1);
  double a = value_at_rank(lo);
  double b = value_at_rank(hi);
  return (a + (b - a) * (rank - static_cast<double>(lo))) / 1e3;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
