// Outside-in per-layer ledger: a thread-local span stack and the
// arithmetic that turns spans into per-layer self times.
//
// The virtual network runs the server on the caller's thread, so every
// span a client operation causes (client proxy, wire, container stages,
// storage, delivery, out-calls) nests on one thread's stack. A span's self
// time is its duration minus the durations of the spans it directly
// contains; the self times of one operation therefore add up to the root
// span's duration, which is what the closure check compares against the
// independently timed wall clock.
//
// Std-only on purpose: the self-test links this file alone and drives it
// with a manual clock over a synthetic span tree.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers of the ledger, named as in the per-layer metric names.
enum Layer : int {
  kProxy,      // client op minus time in the client's SoapCaller::call
  kNet,        // SoapCaller::call minus the server Endpoint::handle
  kParse,      // container `parse` stage, inbound
  kSerialize,  // container `parse` stage, outbound
  kChain,      // telemetry + lifetime-sweep + resolve stages, and the
               // container's own framing outside the chain
  kVerify,     // `security` stage, inbound
  kSign,       // `security` stage, outbound
  kDispatch,   // `dispatch` stage minus storage, delivery and out-calls
  kXmldb,      // xmldb::Backend calls
  kDelivery,   // notification sink SoapCaller::call
  kOutcall,    // service out-call SoapCaller::call minus the callee
  kLayerCount
};

/// Metric-name fragment of a layer's self time, e.g. "xml.parse_us".
const char* layer_metric(Layer layer);

using LayerTimes = std::array<double, kLayerCount>;  // nanoseconds

/// Monotonic nanoseconds; the self-test swaps in a manual clock.
using ClockFn = std::int64_t (*)();
std::int64_t steady_now_ns();
void set_clock(ClockFn clock);  // nullptr restores the steady clock
std::int64_t now_ns();

/// Per-thread tracing state. Spans are recorded only while the thread's
/// current operation is traced; otherwise Span is a flag test.
class Ledger {
 public:
  /// Starts a traced (or untraced) operation on this thread and clears
  /// its accumulated self times.
  static void begin_op(bool traced);
  static bool tracing();
  /// Self times accumulated since begin_op.
  static const LayerTimes& self_times();
  /// Nesting depth of open spans (0 between operations).
  static std::size_t depth();
};

/// RAII span. Time before the first child span goes to `in`, everything
/// else to `out`, so one probe can split a stage into its inbound and
/// outbound halves (parse/serialize, verify/sign).
class Span {
 public:
  explicit Span(Layer layer) : Span(layer, layer) {}
  Span(Layer in, Layer out);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// --- statistics -------------------------------------------------------------

/// Percentile with linear interpolation between closest ranks (the
/// "type 7" estimator): p in [0, 100]. Sorts `values` in place; 0 when
/// empty.
double percentile(std::vector<double>& values, double p);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& values);

/// Fixed-memory histogram of durations in nanoseconds: exact below 128 ns,
/// then 128 log-linear buckets per power of two (relative width under
/// 0.8%). Buckets are allocated on the first sample; memory does not grow
/// with the number of samples, so peak RSS does not depend on throughput.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Same estimator as percentile() above, in microseconds; samples are
  /// taken as spread evenly across their bucket. 0 when empty.
  double percentile_us(double p) const;

 private:
  static constexpr int kSub = 128;
  static std::size_t index_of(std::uint64_t ns);
  double value_at_rank(std::uint64_t rank) const;  // 0-based, in ns

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
