#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "app/file_store.hpp"
#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "gridbox/clients.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "wsn/consumer.hpp"
#include "xml/probe.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace gs;

constexpr int kClients = 2;
// The report prints ops/s per equal time window of the run and compares the
// first half of the windows with the second.
constexpr int kWindows = 10;
constexpr int kStacks = 2;
enum StackId : int { kWsrf = 0, kWst = 1 };
const char* const kStackName[kStacks] = {"wsrf", "wst"};

/// A failed reply check: the op counts as failed and the run as incorrect.
void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// --- seeded schedule ---------------------------------------------------------

/// splitmix64: the same seed gives the same schedule on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent stream per (seed, client, purpose).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t client,
                          std::uint64_t purpose) {
  Rng mix(seed * 0x100000001b3ULL ^ (client << 32) ^ purpose);
  return mix.next();
}

// --- per-unit measurement ----------------------------------------------------

/// Counts taken per unit of work. Each must be the same for every unit of
/// one type on one stack; the traced and untraced halves of a run must
/// agree on all of them.
enum Count : int {
  kMessages,
  kBytes,
  kConnects,
  kDomNodes,
  kReads,
  kWrites,
  kDeliveries,
  kOutcalls,
  kCountKinds
};
const char* const kCountMetric[kCountKinds] = {
    "net.messages_per_op",  "net.bytes_per_op",       "net.connects_per_op",
    "xml.nodes_per_op",     "xmldb.reads_per_op",     "xmldb.writes_per_op",
    "delivery.calls_per_op", "gridbox.outcalls_per_op",
};
const char* const kCountUnit[kCountKinds] = {"count", "B",     "count", "count",
                                             "count", "count", "count", "count"};

struct CountStat {
  double sum = 0;
  double sum_sq = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  void add(std::uint64_t v) {
    double d = static_cast<double>(v);
    sum += d;
    sum_sq += d * d;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  bool constant() const { return min == max; }
  /// Squared standard error of the mean over n samples.
  double var_of_mean(double n) const {
    double mean = sum / n;
    return std::max(0.0, sum_sq / n - mean * mean) / n;
  }
};

/// Everything measured for one (stack, unit type, traced) cell.
struct Agg {
  // Unit wall time (the sum of its client calls' wall times), by the time
  // window of the run the unit started in.
  std::array<Histogram, kWindows> wall_by_window;
  // Fastest wall time of each of the unit's calls, by the call's position
  // in the unit.
  std::vector<std::int64_t> call_floor_ns;
  std::array<CountStat, kCountKinds> counts;
  double sim_wire_us = 0;
  double wall_ns = 0;
  LayerTimes self_ns{};
  std::uint64_t units = 0;
};

struct ThreadResult {
  explicit ThreadResult(int types) : aggs(static_cast<size_t>(kStacks * types * 2)) {}
  std::vector<Agg> aggs;  // [stack][type][traced]
  std::array<std::array<Histogram, 2>, kStacks> calls;  // [stack][traced]
  std::array<Histogram, kWindows> call_windows;  // by call start time
  std::array<Histogram, kStacks> traced_writes;
  std::int64_t reference_floor_ns = std::numeric_limits<std::int64_t>::max();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

/// Times one client's units of work. A unit is one or more client calls;
/// its wall time is the sum of the calls' wall times, measured around the
/// client proxy call, so the benchmark's own checks never count.
class Recorder {
 public:
  Recorder(ThreadResult& out, int types, std::array<net::WireMeter*, kStacks> meters,
           std::int64_t start_ns, std::int64_t run_ns)
      : out_(out), types_(types), meters_(meters), start_ns_(start_ns), run_ns_(run_ns) {}

  void set_traced(bool traced) { traced_ = traced; }

  void begin(int stack, int type) {
    stack_ = stack;
    type_ = type;
    unit_wall_ns_ = 0;
    call_index_ = 0;
    window_ = window_of(steady_now_ns());
    Ledger::begin_op(traced_);
    seam_counts() = {};
    traced_write_ns().clear();
    const net::WireMeter& m = *meters_[static_cast<size_t>(stack)];
    messages0_ = m.messages();
    bytes0_ = m.bytes();
    connects0_ = m.connects();
    sim0_ = m.simulated_ms();
    nodes0_ = xml::probe::snapshot().dom_nodes;
  }

  template <typename Fn>
  void call(Fn&& fn) {
    ++out_.attempted;
    std::int64_t t0 = steady_now_ns();
    {
      Span root(kProxy);
      fn();
    }
    std::int64_t wall = steady_now_ns() - t0;
    unit_wall_ns_ += wall;
    std::vector<std::int64_t>& floors = agg(stack_, type_, traced_).call_floor_ns;
    if (floors.size() <= call_index_) {
      floors.resize(call_index_ + 1, std::numeric_limits<std::int64_t>::max());
    }
    floors[call_index_] = std::min(floors[call_index_], wall);
    ++call_index_;
    out_.calls[static_cast<size_t>(stack_)][traced_].add(wall);
    out_.call_windows[window_of(t0)].add(wall);
  }

  void end() {
    std::uint64_t nodes = xml::probe::snapshot().dom_nodes - nodes0_;
    const net::WireMeter& m = *meters_[static_cast<size_t>(stack_)];
    const SeamCounts& seams = seam_counts();
    Agg& a = agg(stack_, type_, traced_);
    a.units++;
    a.wall_by_window[window_].add(unit_wall_ns_);
    a.wall_ns += static_cast<double>(unit_wall_ns_);
    a.counts[kMessages].add(static_cast<std::uint64_t>(m.messages() - messages0_));
    a.counts[kBytes].add(static_cast<std::uint64_t>(m.bytes() - bytes0_));
    a.counts[kConnects].add(static_cast<std::uint64_t>(m.connects() - connects0_));
    a.counts[kDomNodes].add(nodes);
    a.counts[kReads].add(seams.backend_reads);
    a.counts[kWrites].add(seams.backend_writes);
    a.counts[kDeliveries].add(seams.delivery_calls);
    a.counts[kOutcalls].add(seams.outcalls);
    a.sim_wire_us += (m.simulated_ms() - sim0_) * 1e3;
    if (traced_) {
      const LayerTimes& self = Ledger::self_times();
      for (int l = 0; l < kLayerCount; ++l) a.self_ns[l] += self[l];
      Histogram& writes = out_.traced_writes[static_cast<size_t>(stack_)];
      for (std::int64_t ns : traced_write_ns()) writes.add(ns);
    }
  }

  void fail(const std::string& what) {
    ++out_.failed;
    if (out_.first_error.empty()) out_.first_error = what;
  }

 private:
  std::size_t window_of(std::int64_t t) const {
    return static_cast<std::size_t>(
        std::clamp<std::int64_t>((t - start_ns_) * kWindows / run_ns_, 0, kWindows - 1));
  }

  Agg& agg(int stack, int type, bool traced) {
    return out_.aggs[static_cast<size_t>((stack * types_ + type) * 2 + traced)];
  }

  ThreadResult& out_;
  int types_;
  std::array<net::WireMeter*, kStacks> meters_;
  std::int64_t start_ns_;
  std::int64_t run_ns_;
  bool traced_ = false;
  std::size_t window_ = 0;
  int stack_ = 0;
  int type_ = 0;
  std::int64_t unit_wall_ns_ = 0;
  std::size_t call_index_ = 0;
  std::int64_t messages0_ = 0, bytes0_ = 0, connects0_ = 0;
  double sim0_ = 0;
  std::uint64_t nodes0_ = 0;
};

// --- reference clock ---------------------------------------------------------
//
// The cores of a shared host run faster or slower for tens of seconds at a
// time as neighbouring machines load them, and every latency moves with
// them, floors included. Each client therefore times a fixed kernel between
// units; the fastest of those times is the run's clock, and latency floors
// are reported scaled to a reference clock at which the kernel takes
// exactly kReferenceUs.

constexpr std::int64_t kReferenceEveryNs = 20'000'000;
constexpr double kReferenceUs = 100.0;

/// Four independent chains of xorshift and multiply steps. They stay in
/// registers, so the kernel's time does not depend on the cache state the
/// workload leaves behind; being four, they keep the core's execution units
/// as busy as the program does, so the kernel slows, as the program does,
/// when another guest shares the physical core. `seed` only keeps the
/// compiler from folding it.
std::uint64_t reference_kernel(std::uint64_t seed) {
  std::array<std::uint64_t, 4> x = {seed | 1, seed * 3 | 1, seed * 5 | 1, seed * 7 | 1};
  std::array<std::uint64_t, 4> y = {1, 2, 3, 4};
  for (int i = 0; i < 16000; ++i) {
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] ^= x[j] << 13;
      x[j] ^= x[j] >> 7;
      x[j] ^= x[j] << 17;
      y[j] = y[j] * 6364136223846793005ULL + x[j];
    }
  }
  return y[0] ^ y[1] ^ y[2] ^ y[3];
}

/// Times the reference kernel once; nanoseconds.
std::int64_t time_reference_kernel() {
  std::int64_t t0 = steady_now_ns();
  volatile std::uint64_t sink = reference_kernel(static_cast<std::uint64_t>(t0));
  (void)sink;
  return steady_now_ns() - t0;
}

// --- wiring shared by every deployment ---------------------------------------

/// One stack's co-located virtual network. Every client has its own
/// VirtualCallers (client calls, notification sink, service out-calls)
/// charging its own WireMeter; the SeamCallers route each call to the
/// current client's caller, so per-unit meter deltas are exact under two
/// concurrent clients.
class StackNet {
 public:
  StackNet(StackId stack, bool probes) : probes_(probes) {
    std::vector<net::SoapCaller*> client, sink, outcall;
    for (int c = 0; c < kClients; ++c) {
      Wires& w = wires_[static_cast<size_t>(c)];
      w.client = std::make_unique<net::VirtualCaller>(
          net_, net::VirtualCaller::Options{.meter = &w.meter});
      // WSRF.NET delivers over a fresh connection per notification; the
      // WSE sink keeps one persistent SOAP-over-TCP connection.
      w.sink = std::make_unique<net::VirtualCaller>(
          net_, stack == kWsrf
                    ? net::VirtualCaller::Options{.keep_alive = false,
                                                  .meter = &w.meter}
                    : net::VirtualCaller::Options{
                          .transport = net::TransportKind::kSoapTcp,
                          .meter = &w.meter});
      w.outcall = std::make_unique<net::VirtualCaller>(
          net_, net::VirtualCaller::Options{.meter = &w.meter});
      net_.bind(consumer_authority(c), w.consumer);
      client.push_back(w.client.get());
      sink.push_back(w.sink.get());
      outcall.push_back(w.outcall.get());
    }
    client_ = std::make_unique<SeamCaller>(SeamCaller::Role::kClient, client);
    sink_ = std::make_unique<SeamCaller>(SeamCaller::Role::kDelivery, sink);
    outcall_ = std::make_unique<SeamCaller>(SeamCaller::Role::kOutcall, outcall);
  }

  /// Mounts a container; in a traced run, through a probe endpoint and
  /// with probe stages in its chain.
  void bind(const std::string& authority, container::Container& c) {
    if (!probes_) {
      net_.bind(authority, c);
      return;
    }
    install_chain_probes(c);
    endpoints_.push_back(std::make_unique<ProbeEndpoint>(c));
    net_.bind(authority, *endpoints_.back());
  }

  static std::string consumer_authority(int c) {
    return "client" + std::to_string(c) + ".example";
  }

  net::SoapCaller& client_caller() { return *client_; }
  net::SoapCaller* sink() { return sink_.get(); }
  net::SoapCaller* outcall() { return outcall_.get(); }
  net::WireMeter* meter(int c) { return &wires_[static_cast<size_t>(c)].meter; }
  wsn::NotificationConsumer& consumer(int c) {
    return wires_[static_cast<size_t>(c)].consumer;
  }

 private:
  struct Wires {
    net::WireMeter meter;
    std::unique_ptr<net::VirtualCaller> client, sink, outcall;
    wsn::NotificationConsumer consumer;
  };

  bool probes_;
  net::VirtualNetwork net_{net::NetworkProfile::colocated()};
  std::array<Wires, kClients> wires_;
  std::unique_ptr<SeamCaller> client_, sink_, outcall_;
  std::vector<std::unique_ptr<ProbeEndpoint>> endpoints_;
};

/// Storage of a Grid-in-a-Box deployment: one file per document under
/// `root`, behind the probe.
std::unique_ptr<xmldb::Backend> file_backend(const fs::path& root) {
  return std::make_unique<ProbeBackend>(std::make_unique<xmldb::FileBackend>(root));
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<std::string> unit_types() const = 0;
  /// Runs one unit of work for `client` (the calling thread acts for it).
  virtual void run_unit(int client, Rng& rng, Recorder& rec) = 0;
  virtual std::array<net::WireMeter*, kStacks> meters(int client) = 0;
};

// --- counter deployments ------------------------------------------------------

/// One stack's counter deployment (no security, in-memory storage behind
/// the probe) and one typed client per benchmark client.
class CounterStack {
 public:
  CounterStack(StackId stack, bool probes) : stack_(stack), net_(stack, probes) {
    if (stack == kWsrf) {
      wsrf_ = std::make_unique<counter::WsrfCounterDeployment>(
          counter::WsrfCounterDeployment::Params{
              .backend = std::make_unique<ProbeBackend>(
                  std::make_unique<xmldb::MemoryBackend>()),
              .write_through_cache = true,
              .container = {},
              .notification_sink = net_.sink(),
              .address_base = "http://vo.example",
          });
      net_.bind("vo.example", wsrf_->container());
      for (auto& c : wsrf_clients_) {
        c = std::make_unique<counter::WsrfCounterClient>(
            net_.client_caller(), wsrf_->counter_address());
      }
    } else {
      wst_ = std::make_unique<counter::WstCounterDeployment>(
          counter::WstCounterDeployment::Params{
              .backend = std::make_unique<ProbeBackend>(
                  std::make_unique<xmldb::MemoryBackend>()),
              .container = {},
              .notification_sink = net_.sink(),
              .address_base = "http://vo.example",
              .subscription_file = {},
          });
      net_.bind("vo.example", wst_->container());
      for (auto& c : wst_clients_) {
        c = std::make_unique<counter::WstCounterClient>(
            net_.client_caller(), wst_->counter_address(), wst_->source_address());
      }
    }
  }

  soap::EndpointReference create(int c) {
    return stack_ == kWsrf ? wsrf(c).create() : wst(c).create();
  }
  void attach(int c, const soap::EndpointReference& epr) {
    stack_ == kWsrf ? wsrf(c).attach(epr) : wst(c).attach(epr);
  }
  int get(int c) { return stack_ == kWsrf ? wsrf(c).get() : wst(c).get(); }
  void set(int c, int value) {
    stack_ == kWsrf ? wsrf(c).set(value) : wst(c).set(value);
  }
  void destroy(int c) { stack_ == kWsrf ? wsrf(c).destroy() : wst(c).remove(); }
  /// Subscribes client c's consumer to the attached counter.
  void subscribe(int c) {
    soap::EndpointReference to("http://" + StackNet::consumer_authority(c) + "/s");
    if (stack_ == kWsrf) {
      wsrf(c).subscribe(to);
    } else {
      wst(c).subscribe(to);
    }
  }
  /// The counter's resource id, to check an EPR came back whole.
  std::optional<std::string> id_of(const soap::EndpointReference& epr) const {
    return epr.reference_property(stack_ == kWsrf ? wsrf::resource_id_qname()
                                                  : wst::transfer_id_qname());
  }

  StackNet& net() { return net_; }

 private:
  counter::WsrfCounterClient& wsrf(int c) { return *wsrf_clients_[static_cast<size_t>(c)]; }
  counter::WstCounterClient& wst(int c) { return *wst_clients_[static_cast<size_t>(c)]; }

  StackId stack_;
  StackNet net_;
  std::unique_ptr<counter::WsrfCounterDeployment> wsrf_;
  std::unique_ptr<counter::WstCounterDeployment> wst_;
  std::array<std::unique_ptr<counter::WsrfCounterClient>, kClients> wsrf_clients_;
  std::array<std::unique_ptr<counter::WstCounterClient>, kClients> wst_clients_;
};

class CounterWorkload : public Workload {
 public:
  explicit CounterWorkload(bool probes) {
    stacks_[kWsrf] = std::make_unique<CounterStack>(kWsrf, probes);
    stacks_[kWst] = std::make_unique<CounterStack>(kWst, probes);
  }
  std::array<net::WireMeter*, kStacks> meters(int c) override {
    return {stacks_[kWsrf]->net().meter(c), stacks_[kWst]->net().meter(c)};
  }

 protected:
  // Six-digit values keep every message of one op type the same size.
  static constexpr int kValueBase = 100000;
  std::array<std::unique_ptr<CounterStack>, kStacks> stacks_;
};

/// counter_read: 100% Get over a fixed working set per stack.
class CounterRead final : public CounterWorkload {
 public:
  static constexpr int kPerClient = 500;  // ~1000 counters per stack

  CounterRead(std::uint64_t seed, bool probes) : CounterWorkload(probes) {
    for (int c = 0; c < kClients; ++c) {
      set_client(c);
      Rng rng(stream_seed(seed, static_cast<std::uint64_t>(c), 0xc0));
      for (int s = 0; s < kStacks; ++s) {
        auto& counters = counters_[static_cast<size_t>(s)][static_cast<size_t>(c)];
        for (int i = 0; i < kPerClient; ++i) {
          Entry e{stacks_[s]->create(c),
                  kValueBase + static_cast<int>(rng.below(900000))};
          stacks_[s]->set(c, e.value);
          counters.push_back(std::move(e));
        }
        // Warm-up: read every counter once (fills the WSRF cache).
        for (const Entry& e : counters) {
          stacks_[s]->attach(c, e.epr);
          check(stacks_[s]->get(c) == e.value, "warm-up Get read a wrong value");
        }
      }
    }
  }

  std::vector<std::string> unit_types() const override { return {"get"}; }

  void run_unit(int c, Rng& rng, Recorder& rec) override {
    int s = static_cast<int>(rng.below(kStacks));
    const Entry& e = counters_[static_cast<size_t>(s)][static_cast<size_t>(c)]
                              [rng.below(kPerClient)];
    CounterStack& stack = *stacks_[s];
    stack.attach(c, e.epr);
    int value = 0;
    rec.begin(s, 0);
    rec.call([&] { value = stack.get(c); });
    rec.end();
    check(value == e.value, std::string(kStackName[s]) + " Get returned " +
                                std::to_string(value) + ", last written " +
                                std::to_string(e.value));
  }

 private:
  struct Entry {
    soap::EndpointReference epr;
    int value;
  };
  std::array<std::array<std::vector<Entry>, kClients>, kStacks> counters_;
};

/// counter_write: equal shares of Create, Notify and Destroy. Destroy
/// removes the client's oldest counter, so the population stays fixed.
class CounterWrite final : public CounterWorkload {
 public:
  static constexpr int kPopulation = 128;  // per client: ~256 per stack
  static constexpr int kNotifiers = 4;     // subscribed counters per client
  static constexpr int kFollowUpEvery = 8;  // sampled Get after Destroy
  static constexpr int kWarmUpUnits = 600;  // per client
  enum Type { kCreate, kNotify, kDestroy };

  CounterWrite(std::uint64_t seed, bool probes) : CounterWorkload(probes) {
    for (int c = 0; c < kClients; ++c) {
      set_client(c);
      for (int s = 0; s < kStacks; ++s) {
        State& st = state(s, c);
        CounterStack& stack = *stacks_[s];
        for (int i = 0; i < kNotifiers; ++i) {
          st.notifiers.push_back(stack.create(c));
          stack.subscribe(c);
        }
        for (int i = 0; i < kPopulation; ++i) st.population.push_back(stack.create(c));
        st.next_value = kValueBase;
      }
    }
    // Warm-up: a few units of every type on both stacks, on a stream of
    // its own so the measured schedule does not depend on it.
    for (int c = 0; c < kClients; ++c) {
      set_client(c);
      Rng rng(stream_seed(seed, static_cast<std::uint64_t>(c), 0xc1));
      ThreadResult scratch(3);
      Recorder rec(scratch, 3, meters(c), steady_now_ns(), 1);
      for (int i = 0; i < kWarmUpUnits; ++i) run_unit(c, rng, rec);
    }
  }

  std::vector<std::string> unit_types() const override {
    return {"create", "notify", "destroy"};
  }

  void run_unit(int c, Rng& rng, Recorder& rec) override {
    int s = static_cast<int>(rng.below(kStacks));
    State& st = state(s, c);
    CounterStack& stack = *stacks_[s];
    if (st.pending.empty()) {
      // Shuffled blocks of one of each type keep the shares equal.
      std::array<Type, 3> block = {kCreate, kNotify, kDestroy};
      for (int i = 2; i > 0; --i) {
        std::swap(block[static_cast<size_t>(i)],
                  block[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      st.pending.assign(block.begin(), block.end());
    }
    Type type = st.pending.front();
    st.pending.pop_front();
    const std::string where = kStackName[s];

    switch (type) {
      case kCreate: {
        soap::EndpointReference epr;
        rec.begin(s, kCreate);
        rec.call([&] { epr = stack.create(c); });
        rec.end();
        check(stack.id_of(epr).has_value(), where + " Create returned no resource id");
        st.population.push_back(std::move(epr));
        break;
      }
      case kNotify: {
        stack.attach(c, st.notifiers[rng.below(kNotifiers)]);
        int value = ++st.next_value;
        wsn::NotificationConsumer& consumer = stack.net().consumer(c);
        rec.begin(s, kNotify);
        rec.call([&] { stack.set(c, value); });
        rec.end();
        auto received = consumer.received();
        consumer.clear();
        check(received.size() == 1,
              where + " Notify delivered " + std::to_string(received.size()) +
                  " messages, expected 1");
        const xml::Element* v =
            received[0].payload ? received[0].payload->child_local("Value") : nullptr;
        check(v && v->text() == std::to_string(value),
              where + " notification carries a wrong value");
        break;
      }
      case kDestroy: {
        soap::EndpointReference epr = std::move(st.population.front());
        st.population.pop_front();
        stack.attach(c, epr);
        rec.begin(s, kDestroy);
        rec.call([&] { stack.destroy(c); });
        rec.end();
        if (rng.below(kFollowUpEvery) == 0) {
          bool faulted = false;
          try {
            stack.get(c);
          } catch (const soap::SoapFault&) {
            faulted = true;
          }
          check(faulted, where + " Get on a destroyed counter did not fault");
        }
        break;
      }
    }
  }

 private:
  struct State {
    std::vector<soap::EndpointReference> notifiers;
    std::deque<soap::EndpointReference> population;
    std::deque<Type> pending;
    int next_value = 0;
  };
  State& state(int s, int c) {
    return states_[static_cast<size_t>(s)][static_cast<size_t>(c)];
  }
  std::array<std::array<State, kClients>, kStacks> states_;
};

// --- Grid-in-a-Box -------------------------------------------------------------

/// The VO's PKI: 1024-bit keys from a fixed seed (configuration, not a
/// workload input), so key generation costs the same in every set-up.
struct Pki {
  std::mt19937_64 rng{20050712};
  security::CertificateAuthority ca =
      security::CertificateAuthority::create("CN=GridCA,O=VO", 1024, rng);
  security::Credential service = issue("CN=vo-host,O=VO");
  security::Credential node = issue("CN=node-host,O=VO");
  security::Credential admin = issue("CN=admin,O=VO");
  std::array<security::Credential, kClients> users = {issue("CN=alice,O=VO"),
                                                      issue("CN=bob,O=VO")};

  security::Credential issue(const std::string& dn) {
    return ca.issue(dn, 1024, rng, 0, std::numeric_limits<common::TimeMs>::max());
  }
  container::ProxySecurity sec(const security::Credential& who) const {
    return {&who, &ca.root(), &common::RealClock::instance()};
  }
};

/// One stack's Grid-in-a-Box VO: central services plus one host per
/// client ("node<c>"), every message X.509-signed.
class GridStack {
 public:
  GridStack(StackId stack, const Pki& pki, const fs::path& root, bool probes)
      : stack_(stack), net_(stack, probes) {
    fs::remove_all(root);
    container::ContainerConfig central_cc{container::SecurityMode::kX509,
                                          &pki.ca.root(), &pki.service, &clock_};
    container::ContainerConfig node_cc{container::SecurityMode::kX509,
                                       &pki.ca.root(), &pki.node, &clock_};
    gridbox::ClientIdentity admin{"CN=admin,O=VO", pki.sec(pki.admin)};
    set_client(0);
    if (stack == kWsrf) {
      wsrf_ = std::make_unique<gridbox::WsrfGridDeployment>(
          gridbox::WsrfGridDeployment::Params{
              .backend = file_backend(root / "central"),
              .central_container = central_cc,
              .outcall_caller = net_.outcall(),
              .outcall_security = pki.sec(pki.node),
              .notification_sink = net_.sink(),
              .central_base = "http://vo.example",
          });
      net_.bind("vo.example", wsrf_->central_container());
    } else {
      wst_ = std::make_unique<gridbox::WstGridDeployment>(
          gridbox::WstGridDeployment::Params{
              .backend = file_backend(root / "central"),
              .central_container = central_cc,
              .outcall_caller = net_.outcall(),
              .outcall_security = pki.sec(pki.node),
              .notification_sink = net_.sink(),
              .central_base = "http://vo.example",
          });
      net_.bind("vo.example", wst_->central_container());
    }
    for (int c = 0; c < kClients; ++c) {
      Site& site = sites_[static_cast<size_t>(c)];
      site.host = "node" + std::to_string(c);
      site.file_root = root / (site.host + "-files");
      site.dn = c == 0 ? "CN=alice,O=VO" : "CN=bob,O=VO";
      std::string base = "http://" + site.host + ".example";
      if (stack == kWsrf) {
        wsrf_->add_host({.host = site.host,
                         .base = base,
                         .backend = file_backend(root / (site.host + "-db")),
                         .container = node_cc,
                         .file_root = site.file_root});
        net_.bind(site.host + ".example", wsrf_->host_container(site.host));
      } else {
        wst_->add_host({.host = site.host,
                        .base = base,
                        .backend = file_backend(root / (site.host + "-db")),
                        .container = node_cc,
                        .file_root = site.file_root,
                        .subscription_file = {}});
        net_.bind(site.host + ".example", wst_->host_container(site.host));
      }
      site.files = std::make_unique<app::FileStore>(site.file_root);
    }
    for (int c = 0; c < kClients; ++c) {
      Site& site = sites_[static_cast<size_t>(c)];
      gridbox::ClientIdentity user{site.dn, pki.sec(pki.users[static_cast<size_t>(c)])};
      if (stack == kWsrf) {
        gridbox::WsrfAdminClient admin_client(net_.client_caller(), *wsrf_, admin);
        admin_client.add_account(site.dn, {gridbox::kPrivilegeSubmit});
        admin_client.register_site({site.host, wsrf_->exec_address(site.host),
                                    wsrf_->data_address(site.host), {"blast"}});
        site.wsrf_user = std::make_unique<gridbox::WsrfUserClient>(
            net_.client_caller(), *wsrf_, user);
        set_client(c);
        site.directory = site.wsrf_user->create_directory(wsrf_->data_address(site.host));
        site.data_dir = site.directory.reference_property(wsrf::resource_id_qname())
                            .value_or("");
        set_client(0);
      } else {
        gridbox::WstAdminClient admin_client(net_.client_caller(), *wst_, admin);
        admin_client.add_account(site.dn, {gridbox::kPrivilegeSubmit});
        admin_client.register_site({site.host, wst_->exec_address(site.host),
                                    wst_->data_address(site.host), {"blast"}});
        site.wst_user = std::make_unique<gridbox::WstUserClient>(
            net_.client_caller(), *wst_, user);
        site.data_dir = app::FileStore::hash_dn(site.dn);
      }
    }
  }

  /// One full Fig-6 flow for client c: available resources, reserve,
  /// upload, instantiate job, delete file (and unreserve on WS-Transfer),
  /// then destroy the finished job so state stays bounded.
  void flow(int c, Recorder& rec, int seq) {
    Site& site = sites_[static_cast<size_t>(c)];
    const std::string where = kStackName[stack_];
    char name[32];
    std::snprintf(name, sizeof(name), "in-%07d.dat", seq % 10000000);
    const std::string payload = "benchmark payload";
    const std::string command = "sim:duration=0,exit=0";
    std::vector<gridbox::SiteInfo> available;
    bool uploaded = false;
    soap::EndpointReference job;

    rec.begin(stack_, 0);
    if (stack_ == kWsrf) {
      gridbox::WsrfUserClient& user = *site.wsrf_user;
      soap::EndpointReference reservation;
      rec.call([&] { available = user.get_available_resources("blast"); });
      rec.call([&] { reservation = user.make_reservation(site.host); });
      rec.call([&] { user.upload(site.directory, name, payload); });
      uploaded = site.files->get(site.data_dir, name).has_value();
      rec.call([&] {
        job = user.start_job(wsrf_->exec_address(site.host), command, reservation,
                             site.directory);
      });
      rec.call([&] { user.delete_file(site.directory, name); });
      rec.call([&] { user.destroy(job); });
    } else {
      gridbox::WstUserClient& user = *site.wst_user;
      std::string data = wst_->data_address(site.host);
      rec.call([&] { available = user.get_available_resources("blast"); });
      rec.call([&] { user.make_reservation(site.host); });
      rec.call([&] { user.upload(data, name, payload); });
      uploaded = site.files->get(site.data_dir, name).has_value();
      rec.call([&] { job = user.start_job(wst_->exec_address(site.host), command); });
      rec.call([&] { user.delete_file(data, name); });
      rec.call([&] { user.unreserve(site.host); });
      rec.call([&] { user.remove(job); });
    }
    rec.end();

    check(std::any_of(available.begin(), available.end(),
                      [&](const gridbox::SiteInfo& s) { return s.host == site.host; }),
          where + " flow: own site missing from available resources");
    check(uploaded, where + " flow: uploaded file absent before its delete");
    check(job.reference_property(stack_ == kWsrf ? wsrf::resource_id_qname()
                                                 : wst::transfer_id_qname())
              .has_value(),
          where + " flow: instantiate job returned no job EPR");
    check(!site.files->get(site.data_dir, name).has_value(),
          where + " flow: deleted file still present");
  }

  StackNet& net() { return net_; }

 private:
  struct Site {
    std::string host;
    std::string dn;
    fs::path file_root;
    std::unique_ptr<app::FileStore> files;  // read-only view for checks
    std::string data_dir;
    soap::EndpointReference directory;  // WSRF data resource
    std::unique_ptr<gridbox::WsrfUserClient> wsrf_user;
    std::unique_ptr<gridbox::WstUserClient> wst_user;
  };

  StackId stack_;
  common::ManualClock clock_{1'000'000};
  StackNet net_;
  std::unique_ptr<gridbox::WsrfGridDeployment> wsrf_;
  std::unique_ptr<gridbox::WstGridDeployment> wst_;
  std::array<Site, kClients> sites_;
};

/// gridbox_x509: full Fig-6 flows, X.509 signing on every client call and
/// every service out-call.
class GridboxX509 final : public Workload {
 public:
  GridboxX509(const fs::path& root, bool probes) {
    stacks_[kWsrf] = std::make_unique<GridStack>(kWsrf, pki_, root / "wsrf", probes);
    stacks_[kWst] = std::make_unique<GridStack>(kWst, pki_, root / "wst", probes);
    // Warm-up: one flow per client on each stack.
    for (int c = 0; c < kClients; ++c) {
      set_client(c);
      ThreadResult scratch(1);
      Recorder rec(scratch, 1, meters(c), steady_now_ns(), 1);
      for (int s = 0; s < kStacks; ++s) stacks_[s]->flow(c, rec, next_seq(c));
    }
  }

  std::vector<std::string> unit_types() const override { return {"flow"}; }
  std::array<net::WireMeter*, kStacks> meters(int c) override {
    return {stacks_[kWsrf]->net().meter(c), stacks_[kWst]->net().meter(c)};
  }

  void run_unit(int c, Rng& rng, Recorder& rec) override {
    int s = static_cast<int>(rng.below(kStacks));
    stacks_[s]->flow(c, rec, next_seq(c));
  }

 private:
  int next_seq(int c) { return seq_[static_cast<size_t>(c)]++; }

  Pki pki_;
  std::array<std::unique_ptr<GridStack>, kStacks> stacks_;
  std::array<int, kClients> seq_{};
};

std::unique_ptr<Workload> make_workload(const RunConfig& cfg, const fs::path& root) {
  bool probes = cfg.trace;
  if (cfg.workload == "counter_read") {
    return std::make_unique<CounterRead>(cfg.seed, probes);
  }
  if (cfg.workload == "counter_write") {
    return std::make_unique<CounterWrite>(cfg.seed, probes);
  }
  if (cfg.workload == "gridbox_x509") return std::make_unique<GridboxX509>(root, probes);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

// --- report ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median_of(std::vector<double> v) { return percentile(v, 50); }

/// Unit walls of windows [from, to).
Histogram unit_walls(const Agg& a, int from = 0, int to = kWindows) {
  Histogram h;
  for (int w = from; w < to; ++w) h.merge(a.wall_by_window[static_cast<size_t>(w)]);
  return h;
}

/// Merged view of both clients' results.
struct Merged {
  int types = 0;
  std::vector<Agg> aggs;  // [stack][type][traced], samples concatenated
  std::array<std::array<Histogram, 2>, kStacks> calls{};
  std::array<Histogram, kWindows> call_windows{};
  std::array<Histogram, kStacks> writes{};
  std::int64_t reference_floor_ns = std::numeric_limits<std::int64_t>::max();
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;

  const Agg& agg(int s, int t, bool traced) const {
    return aggs[static_cast<size_t>((s * types + t) * 2 + traced)];
  }
};

Merged merge(std::vector<ThreadResult>& results, int types) {
  Merged m;
  m.types = types;
  m.aggs.resize(static_cast<size_t>(kStacks * types * 2));
  for (ThreadResult& r : results) {
    for (size_t i = 0; i < m.aggs.size(); ++i) {
      Agg& into = m.aggs[i];
      const Agg& from = r.aggs[i];
      for (int w = 0; w < kWindows; ++w) into.wall_by_window[w].merge(from.wall_by_window[w]);
      if (into.call_floor_ns.size() < from.call_floor_ns.size()) {
        into.call_floor_ns.resize(from.call_floor_ns.size(),
                                  std::numeric_limits<std::int64_t>::max());
      }
      for (size_t k = 0; k < from.call_floor_ns.size(); ++k) {
        into.call_floor_ns[k] = std::min(into.call_floor_ns[k], from.call_floor_ns[k]);
      }
      for (int k = 0; k < kCountKinds; ++k) {
        const CountStat& f = from.counts[static_cast<size_t>(k)];
        CountStat& t = into.counts[static_cast<size_t>(k)];
        if (from.units == 0) continue;
        t.sum += f.sum;
        t.sum_sq += f.sum_sq;
        t.min = std::min(t.min, f.min);
        t.max = std::max(t.max, f.max);
      }
      into.sim_wire_us += from.sim_wire_us;
      into.wall_ns += from.wall_ns;
      for (int l = 0; l < kLayerCount; ++l) into.self_ns[l] += from.self_ns[l];
      into.units += from.units;
    }
    for (int s = 0; s < kStacks; ++s) {
      for (int tr = 0; tr < 2; ++tr) {
        m.calls[static_cast<size_t>(s)][static_cast<size_t>(tr)].merge(
            r.calls[static_cast<size_t>(s)][static_cast<size_t>(tr)]);
      }
      m.writes[static_cast<size_t>(s)].merge(r.traced_writes[static_cast<size_t>(s)]);
    }
    for (int w = 0; w < kWindows; ++w) m.call_windows[w].merge(r.call_windows[w]);
    m.reference_floor_ns = std::min(m.reference_floor_ns, r.reference_floor_ns);
    m.attempted += r.attempted;
    m.failed += r.failed;
    if (m.first_error.empty()) m.first_error = r.first_error;
  }
  return m;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-type p50s, their first-half/second-half drift, and sample counts.
void print_latency_report(const Merged& m, const std::vector<std::string>& types,
                          bool traced) {
  for (int s = 0; s < kStacks; ++s) {
    for (int t = 0; t < m.types; ++t) {
      const Agg& a = m.agg(s, t, traced);
      Histogram all = unit_walls(a);
      std::printf(
          "  %s.%-8s n=%-7llu p50=%10.1f us  p99=%10.1f us  "
          "first-half p50=%10.1f  second-half p50=%10.1f\n",
          kStackName[s], types[static_cast<size_t>(t)].c_str(),
          static_cast<unsigned long long>(a.units), all.percentile_us(50),
          all.percentile_us(99), unit_walls(a, 0, kWindows / 2).percentile_us(50),
          unit_walls(a, kWindows / 2, kWindows).percentile_us(50));
    }
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr std::int64_t kSetupSpanNs = 2'000'000'000;

}  // namespace

int run_benchmark(const RunConfig& cfg) {
  // Set up repeatedly, each time from a fresh storage root, and keep the
  // last. The host's speed changes from one second to the next, so the
  // set-ups continue until they span kSetupSpanNs and the median is taken
  // over all of them.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  try {
    std::int64_t setups_start = steady_now_ns();
    while (setup_times.size() < kMinSetups ||
           (steady_now_ns() - setups_start < kSetupSpanNs && setup_times.size() < kMaxSetups)) {
      workload.reset();
      fs::remove_all(cfg.workdir);
      std::int64_t t0 = steady_now_ns();
      workload = make_workload(cfg, cfg.workdir);
      setup_times.push_back(static_cast<double>(steady_now_ns() - t0) / 1e9);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }
  std::vector<std::string> types = workload->unit_types();
  int ntypes = static_cast<int>(types.size());

  // Closed loop: each client sends its next unit only after the previous
  // one completed. In a traced run, tenths of the run alternate between
  // untraced and traced so both halves see the same state.
  std::vector<ThreadResult> results(kClients, ThreadResult(ntypes));
  std::int64_t start_ns = steady_now_ns();
  std::int64_t deadline_ns = start_ns + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::int64_t slice_ns = static_cast<std::int64_t>(cfg.seconds * 1e8);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      set_client(c);
      ThreadResult& out = results[static_cast<size_t>(c)];
      Rng rng(stream_seed(cfg.seed, static_cast<std::uint64_t>(c), 0x5c));
      Recorder rec(out, ntypes, workload->meters(c), start_ns, deadline_ns - start_ns);
      std::int64_t next_reference_ns = start_ns;
      for (;;) {
        std::int64_t now = steady_now_ns();
        if (now >= deadline_ns) break;
        if (now >= next_reference_ns) {
          std::int64_t took = time_reference_kernel();
          out.reference_floor_ns = std::min(out.reference_floor_ns, took);
          next_reference_ns = now + took + kReferenceEveryNs;
          continue;
        }
        rec.set_traced(cfg.trace && ((now - start_ns) / slice_ns) % 2 == 1);
        try {
          workload->run_unit(c, rng, rec);
        } catch (const std::exception& e) {
          // A failed op leaves the client's resources in an unknown state;
          // the run is already incorrect, so this client stops here.
          rec.fail(e.what());
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Merged m = merge(results, ntypes);

  bool correct = m.failed == 0;
  std::printf("workload %s, seed %llu, %.0f s, %d clients, %s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, kClients,
              cfg.trace ? "traced" : "untraced");
  if (!m.first_error.empty()) std::printf("  FAILED: %s\n", m.first_error.c_str());
  std::printf("  set-up: median %.3f s of %zu:", median_of(setup_times), setup_times.size());
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n");
  Histogram all_calls;
  for (const auto& by_mode : m.calls) {
    for (const Histogram& h : by_mode) all_calls.merge(h);
  }
  if (all_calls.count() < 1000) {
    std::printf("  FAILED: only %llu client ops; a run needs at least 1000\n",
                static_cast<unsigned long long>(all_calls.count()));
    correct = false;
  }
  double error_rate =
      m.attempted ? static_cast<double>(m.failed) / static_cast<double>(m.attempted) : 1.0;
  std::printf("  attempted %llu, failed %llu, error_rate %.6f\n",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed), error_rate);

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    // Throughput and percentiles follow the host's load more than the code,
    // so they are printed for reading but not reported as metrics.
    double window_s = cfg.seconds / kWindows;
    print_latency_report(m, types, false);
    std::printf("  all ops: p50 %.1f p90 %.1f p99 %.1f us; ops/s per window:",
                all_calls.percentile_us(50), all_calls.percentile_us(90),
                all_calls.percentile_us(99));
    for (const Histogram& w : m.call_windows) {
      std::printf(" %.0f", static_cast<double>(w.count()) / window_s);
    }
    std::printf("\n  ops_per_s %.1f ops/s over the whole run\n",
                static_cast<double>(all_calls.count()) / cfg.seconds);
    metrics.push_back({"setup_s", median_of(setup_times), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
    // A unit's floor is the sum over its calls of the fastest time that
    // call took in the run; a stack's figure is the geometric mean over the
    // workload's unit types, scaled to the reference clock.
    double reference_us = static_cast<double>(m.reference_floor_ns) / 1e3;
    std::printf("  reference kernel floor %.3f us (%.1f us at the reference clock)\n",
                reference_us, kReferenceUs);
    for (int s = 0; s < kStacks; ++s) {
      std::vector<double> floors;
      for (int t = 0; t < ntypes; ++t) {
        double floor_ns = 0;
        for (std::int64_t ns : m.agg(s, t, false).call_floor_ns) {
          floor_ns += static_cast<double>(ns);
        }
        floors.push_back(floor_ns / 1e3);
        std::printf("  %s.%-8s floor %10.2f us\n", kStackName[s],
                    types[static_cast<size_t>(t)].c_str(), floor_ns / 1e3);
      }
      metrics.push_back({std::string(kStackName[s]) + ".op_floor_us",
                         geomean(floors) * kReferenceUs / reference_us, "us"});
    }
  } else {
    std::printf(" untraced tenths:\n");
    print_latency_report(m, types, false);
    std::printf(" traced tenths:\n");
    print_latency_report(m, types, true);
    // Tracing overhead: ops/s of traced tenths vs untraced tenths.
    std::array<double, 2> calls_by_mode{};
    for (int s = 0; s < kStacks; ++s) {
      for (int tr = 0; tr < 2; ++tr) {
        calls_by_mode[static_cast<size_t>(tr)] += static_cast<double>(
            m.calls[static_cast<size_t>(s)][static_cast<size_t>(tr)].count());
      }
    }
    double overhead_pct =
        calls_by_mode[0] > 0 ? (1.0 - calls_by_mode[1] / calls_by_mode[0]) * 100.0 : 0.0;

    for (int s = 0; s < kStacks; ++s) {
      std::string stack = kStackName[s];
      // Means per unit, averaged over the workload's unit types with equal
      // weight so the figures do not depend on where the run stopped.
      LayerTimes self_us{};
      std::array<double, kCountKinds> counts{};
      double wall_us = 0, sim_us = 0;
      int cells = 0;
      for (int t = 0; t < ntypes; ++t) {
        const Agg& a = m.agg(s, t, true);
        if (a.units == 0) continue;
        double n = static_cast<double>(a.units);
        for (int l = 0; l < kLayerCount; ++l) self_us[l] += a.self_ns[l] / n / 1e3;
        for (int k = 0; k < kCountKinds; ++k) {
          counts[static_cast<size_t>(k)] += a.counts[static_cast<size_t>(k)].sum / n;
        }
        wall_us += a.wall_ns / n / 1e3;
        sim_us += a.sim_wire_us / n;
        ++cells;
      }
      if (cells == 0) {
        std::printf("  FAILED: no traced %s units\n", stack.c_str());
        correct = false;
        cells = 1;
      }
      double self_sum = 0;
      for (int l = 0; l < kLayerCount; ++l) {
        self_us[l] /= cells;
        self_sum += self_us[l];
        metrics.push_back({stack + "." + layer_metric(static_cast<Layer>(l)),
                           self_us[l], "us"});
      }
      for (int k = 0; k < kCountKinds; ++k) {
        metrics.push_back({stack + "." + kCountMetric[k],
                           counts[static_cast<size_t>(k)] / cells, kCountUnit[k]});
      }
      wall_us /= cells;
      metrics.push_back({stack + ".net.sim_wire_us_per_op", sim_us / cells, "us"});
      metrics.push_back({stack + ".xmldb.write_p99_us",
                         m.writes[static_cast<size_t>(s)].percentile_us(99), "us"});
      metrics.push_back({stack + ".ledger.wall_us", wall_us, "us"});
      double unattributed = wall_us - self_sum;
      metrics.push_back({stack + ".ledger.unattributed_us", unattributed, "us"});

      // Ledger closure: self times must add up to the independently timed
      // wall clock.
      bool closes = std::fabs(unattributed) <= 0.02 * wall_us;
      std::printf("  %s ledger: wall %.1f us, layers %.1f us, unattributed %.2f us (%s)\n",
                  stack.c_str(), wall_us, self_sum, unattributed,
                  closes ? "closes" : "DOES NOT CLOSE");
      if (!closes) correct = false;

      // Probe neutrality and determinism, per unit type.
      for (int t = 0; t < ntypes; ++t) {
        const Agg& un = m.agg(s, t, false);
        const Agg& tr = m.agg(s, t, true);
        for (int k = 0; k < kCountKinds; ++k) {
          const CountStat& a = un.counts[static_cast<size_t>(k)];
          const CountStat& b = tr.counts[static_cast<size_t>(k)];
          if (un.units == 0 || tr.units == 0) continue;
          double n_a = static_cast<double>(un.units);
          double n_b = static_cast<double>(tr.units);
          double mean_a = a.sum / n_a;
          double mean_b = b.sum / n_b;
          // A fixed count must be identical. A count that varies with how
          // the two clients interleave (cache fills racing writes, growing
          // ids) must agree within four standard errors.
          bool fixed = a.constant() && b.constant();
          double tolerance =
              4 * std::sqrt(a.var_of_mean(n_a) + b.var_of_mean(n_b)) + 1e-3 * mean_a;
          bool neutral = fixed ? a.min == b.min : std::fabs(mean_a - mean_b) <= tolerance;
          std::printf("    %s.%s %-24s untraced %12.2f traced %12.2f  %s%s\n",
                      stack.c_str(), types[static_cast<size_t>(t)].c_str(),
                      kCountMetric[k], mean_a, mean_b, fixed ? "fixed" : "varies",
                      neutral ? "" : "  NOT NEUTRAL");
          if (!neutral) correct = false;
        }
      }
    }
    metrics.push_back({"trace.overhead_pct", overhead_pct, "pct"});
    metrics.push_back({"error_rate", error_rate, "fraction"});
  }
  print_json(correct, m.attempted, m.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
