#include "probes.hpp"

namespace perfbench {

using namespace gs;

namespace {

thread_local int tl_client = 0;
thread_local SeamCounts tl_counts;
thread_local std::vector<std::int64_t> tl_write_ns;

class ProbeHandler final : public container::Handler {
 public:
  ProbeHandler(std::string name, Layer in, Layer out)
      : name_(std::move(name)), in_(in), out_(out) {}
  const char* name() const noexcept override { return name_.c_str(); }
  void handle(container::PipelineContext& ctx, Next next) override {
    Span span(in_, out_);
    next(ctx);
  }

 private:
  std::string name_;
  Layer in_;
  Layer out_;
};

// Times a write and keeps its duration when the operation is traced.
template <typename Fn>
auto timed_write(Fn&& fn) {
  ++tl_counts.backend_writes;
  if (!Ledger::tracing()) return fn();
  std::int64_t started = now_ns();
  struct Record {
    std::int64_t started;
    ~Record() {
      tl_write_ns.push_back(now_ns() - started);
    }
  } record{started};
  Span span(kXmldb);
  return fn();
}

template <typename Fn>
auto timed_read(Fn&& fn) {
  ++tl_counts.backend_reads;
  Span span(kXmldb);
  return fn();
}

}  // namespace

void set_client(int index) { tl_client = index; }
int current_client() { return tl_client; }
SeamCounts& seam_counts() { return tl_counts; }
std::vector<std::int64_t>& traced_write_ns() { return tl_write_ns; }

void install_chain_probes(container::Container& container) {
  struct Stage {
    const char* name;
    Layer in;
    Layer out;
  };
  static const Stage kStages[] = {
      {"parse", kParse, kSerialize},   {"telemetry", kChain, kChain},
      {"lifetime-sweep", kChain, kChain}, {"resolve", kChain, kChain},
      {"security", kVerify, kSign},    {"dispatch", kDispatch, kDispatch},
  };
  for (const Stage& s : kStages) {
    container.chain().insert_before(
        s.name, std::make_shared<ProbeHandler>(std::string("probe:") + s.name,
                                               s.in, s.out));
  }
}

net::HttpResponse ProbeEndpoint::handle(const net::HttpRequest& request) {
  Span span(kChain);
  return target_.handle(request);
}

soap::Envelope SeamCaller::call(const std::string& address,
                                const soap::Envelope& request) {
  Layer layer = kNet;
  switch (role_) {
    case Role::kClient:
      break;
    case Role::kDelivery:
      ++tl_counts.delivery_calls;
      layer = kDelivery;
      break;
    case Role::kOutcall:
      ++tl_counts.outcalls;
      layer = kOutcall;
      break;
  }
  Span span(layer);
  return per_client_.at(static_cast<std::size_t>(tl_client))
      ->call(address, request);
}

void ProbeBackend::put(const std::string& collection, const std::string& id,
                       const std::string& octets) {
  timed_write([&] { inner_->put(collection, id, octets); });
}

std::optional<std::string> ProbeBackend::get(const std::string& collection,
                                             const std::string& id) {
  return timed_read([&] { return inner_->get(collection, id); });
}

bool ProbeBackend::remove(const std::string& collection,
                          const std::string& id) {
  return timed_write([&] { return inner_->remove(collection, id); });
}

std::vector<std::string> ProbeBackend::list(const std::string& collection) {
  return timed_read([&] { return inner_->list(collection); });
}

bool ProbeBackend::contains(const std::string& collection,
                            const std::string& id) {
  return timed_read([&] { return inner_->contains(collection, id); });
}

}  // namespace perfbench
