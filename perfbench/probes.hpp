// Probes at the public seams the deployments already take. Each one only
// timestamps (through Span) and calls through: none reads the request or
// response envelope, because a const read materializes the DOM and leaves
// the wire fast path.
//
//   * ProbeHandler  — a pass-through stage inserted into a container's
//                     chain with HandlerChain::insert_before;
//   * ProbeEndpoint — the container as bound on the virtual network;
//   * SeamCaller    — the SoapCaller handed to clients, to the
//                     notification sink and to service out-calls. It also
//                     routes each call to the current client's own
//                     VirtualCaller, so every client has its own
//                     connections and its own WireMeter;
//   * ProbeBackend  — the xmldb::Backend a deployment is given.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "ledger.hpp"
#include "net/virtual_network.hpp"
#include "xmldb/backend.hpp"

namespace perfbench {

/// The benchmark client the current thread acts for (0-based).
void set_client(int index);
int current_client();

/// Calls the program made through the seams during the current operation
/// on this thread. The workload zeroes it at operation start.
struct SeamCounts {
  std::uint64_t backend_reads = 0;
  std::uint64_t backend_writes = 0;
  std::uint64_t delivery_calls = 0;
  std::uint64_t outcalls = 0;
};
SeamCounts& seam_counts();
/// Durations (ns) of backend writes made by traced operations on this
/// thread since the workload last cleared it.
std::vector<std::int64_t>& traced_write_ns();

/// Inserts a span-opening stage before each of the container's default
/// stages: parse (inbound/outbound split), telemetry, lifetime-sweep,
/// resolve, security (verify/sign split) and dispatch.
void install_chain_probes(gs::container::Container& container);

class ProbeEndpoint final : public gs::net::Endpoint {
 public:
  explicit ProbeEndpoint(gs::net::Endpoint& target) : target_(target) {}
  gs::net::HttpResponse handle(const gs::net::HttpRequest& request) override;
  const gs::security::Credential* tls_credential() const override {
    return target_.tls_credential();
  }

 private:
  gs::net::Endpoint& target_;
};

class SeamCaller final : public gs::net::SoapCaller {
 public:
  enum class Role { kClient, kDelivery, kOutcall };
  /// `per_client[i]` carries the calls made while acting for client i.
  SeamCaller(Role role, std::vector<gs::net::SoapCaller*> per_client)
      : role_(role), per_client_(std::move(per_client)) {}
  gs::soap::Envelope call(const std::string& address,
                      const gs::soap::Envelope& request) override;

 private:
  Role role_;
  std::vector<gs::net::SoapCaller*> per_client_;
};

class ProbeBackend final : public gs::xmldb::Backend {
 public:
  explicit ProbeBackend(std::unique_ptr<gs::xmldb::Backend> inner)
      : inner_(std::move(inner)) {}
  void put(const std::string& collection, const std::string& id,
           const std::string& octets) override;
  std::optional<std::string> get(const std::string& collection,
                                 const std::string& id) override;
  bool remove(const std::string& collection, const std::string& id) override;
  std::vector<std::string> list(const std::string& collection) override;
  bool contains(const std::string& collection, const std::string& id) override;

 private:
  std::unique_ptr<gs::xmldb::Backend> inner_;
};

}  // namespace perfbench
