// Concurrency and robustness stress tests: parallel clients against one
// container, concurrent database access, hostile wire input, and depth /
// size limits.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "counter/wsrf_counter.hpp"
#include "counter/wst_counter.hpp"
#include "net/tcp.hpp"
#include "wsn/consumer.hpp"
#include "xml/parser.hpp"
#include "xmldb/database.hpp"

namespace gs {
namespace {

// --- hostile input --------------------------------------------------------------

TEST(Robustness, DeeplyNestedDocumentIsRejectedNotCrashed) {
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "<a>";
  EXPECT_THROW(xml::parse_element(bomb), xml::ParseError);
}

TEST(Robustness, DepthJustUnderTheLimitParses) {
  std::string doc;
  for (int i = 0; i < 250; ++i) doc += "<a>";
  doc += "x";
  for (int i = 0; i < 250; ++i) doc += "</a>";
  EXPECT_NO_THROW(xml::parse_element(doc));
}

TEST(Robustness, ContainerSurvivesGarbageRequests) {
  container::Container container({});
  const char* kGarbage[] = {
      "",
      "garbage",
      "<xml-but-not-soap/>",
      "<Envelope xmlns=\"urn:wrong-ns\"><Body/></Envelope>",
      "POST / HTTP/1.1\r\n\r\n",  // HTTP inside the body
  };
  for (const char* body : kGarbage) {
    net::HttpRequest request;
    request.path = "/anything";
    request.body = body;
    net::HttpResponse response = container.handle(request);
    EXPECT_GE(response.status, 400) << body;
  }
}

TEST(Robustness, LargePayloadRoundTrips) {
  // A 1 MiB base64 blob through the whole stack (upload-sized message).
  net::VirtualNetwork net;
  net::VirtualCaller sink(net, {.transport = net::TransportKind::kSoapTcp});
  counter::WstCounterDeployment dep({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://h.example",
      .subscription_file = {},
  });
  net.bind("h.example", dep.container());
  net::VirtualCaller caller(net, {});

  wst::TransferProxy factory(caller,
                             soap::EndpointReference(dep.counter_address()));
  auto doc = std::make_unique<xml::Element>(xml::QName("urn:big", "Blob"));
  doc->set_text(std::string(1 << 20, 'A'));
  auto result = factory.create(std::move(doc));
  wst::TransferProxy resource(caller, result.resource);
  EXPECT_EQ(resource.get()->text().size(), 1u << 20);
}

// --- concurrent container access ---------------------------------------------------

TEST(Concurrency, ParallelClientsOverRealSockets) {
  // Multiple threads drive independent counters through one container via
  // real TCP; the container, database and lifetime manager must hold up.
  net::VirtualNetwork local;
  net::VirtualCaller sink(local, {.keep_alive = false});

  class Forward final : public net::Endpoint {
   public:
    net::Endpoint* target = nullptr;
    net::HttpResponse handle(const net::HttpRequest& request) override {
      return target->handle(request);
    }
  };
  Forward forward;
  net::HttpServer server(forward, 0, 4);
  counter::WsrfCounterDeployment dep({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .write_through_cache = true,
      .container = {},
      .notification_sink = &sink,
      .address_base = server.base_url(),
  });
  forward.target = &dep.container();

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        net::TcpSoapCaller caller;
        counter::WsrfCounterClient client(caller,
                                          server.base_url() + "/Counter");
        client.create();
        for (int i = 0; i < kOpsPerThread; ++i) {
          client.set(t * 1000 + i);
          if (client.get() != t * 1000 + i) failures.fetch_add(1);
        }
        client.destroy();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
}

TEST(Concurrency, DatabaseSurvivesParallelMixedOperations) {
  xmldb::XmlDatabase db(std::make_unique<xmldb::MemoryBackend>(),
                        {.write_through_cache = true});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = 0; i < 100; ++i) {
          std::string id = "doc-" + std::to_string(t) + "-" + std::to_string(i);
          xml::Element doc(xml::QName("r"));
          doc.set_text(std::to_string(i));
          db.store("col", id, doc);
          auto loaded = db.load("col", id);
          if (!loaded || loaded->text() != std::to_string(i)) {
            failures.fetch_add(1);
          }
          if (i % 3 == 0) db.remove("col", id);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, LifetimeManagerParallelScheduleAndSweep) {
  common::ManualClock clock(0);
  container::LifetimeManager lm(clock);
  std::atomic<int> destroyed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        lm.schedule(1, [&destroyed] { destroyed.fetch_add(1); });
        lm.sweep();
      }
    });
  }
  // Advance time so the sweeps fire while schedules race in.
  clock.advance(10);
  for (auto& thread : threads) thread.join();
  lm.sweep();
  EXPECT_GT(destroyed.load(), 0);
  // Nothing lost: everything scheduled before the final sweep at t=10 with
  // termination t=1 or t=11 must eventually fire or stay active.
  EXPECT_EQ(destroyed.load() + static_cast<int>(lm.active()), 4 * 200);
}

// Deadline moves and cancels race the sweeps and the clock: every handle
// ends up destroyed once, cancelled, or still active, never two of these.
TEST(Concurrency, LifetimeManagerParallelRescheduleCancelAndSweep) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  common::ManualClock clock(0);
  container::LifetimeManager lm(clock);
  std::vector<std::atomic<int>> fired(kThreads * kPerThread + 1);
  std::vector<std::atomic<int>> cancelled(kThreads * kPerThread + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<container::LifetimeManager::Handle> mine;
      for (int i = 0; i < kPerThread; ++i) {
        std::shared_ptr<container::LifetimeManager::Handle> self =
            std::make_shared<container::LifetimeManager::Handle>(0);
        auto h = lm.schedule(container::LifetimeManager::kNever,
                             [&fired, self] { fired[*self].fetch_add(1); });
        *self = h;  // the callback cannot run before a finite deadline is set
        mine.push_back(h);
        common::TimeMs deadlines[] = {1, 20, container::LifetimeManager::kNever};
        lm.set_termination_time(h, deadlines[(i + t) % 3]);
        if (i % 3 == 0) {
          auto victim = mine[(i * 7 + t) % mine.size()];
          if (lm.cancel(victim)) cancelled[victim].fetch_add(1);
        }
        if (i % 5 == 0) lm.set_termination_time(mine[i / 2], 5);
        lm.sweep();
      }
    });
  }
  for (int step = 0; step < 30; ++step) {
    clock.advance(1);
    std::this_thread::yield();
  }
  for (auto& thread : threads) thread.join();
  lm.sweep();

  int destroyed = 0;
  int cancels = 0;
  for (size_t h = 1; h < fired.size(); ++h) {
    EXPECT_LE(fired[h].load() + cancelled[h].load(), 1) << "handle " << h;
    destroyed += fired[h].load();
    cancels += cancelled[h].load();
  }
  EXPECT_GT(cancels, 0);
  EXPECT_EQ(destroyed + static_cast<int>(lm.active()) + cancels,
            kThreads * kPerThread);
}

TEST(Concurrency, NotificationFanOutFromManyPublishes) {
  // Publish from several threads at once; every accepted notification must
  // be delivered exactly once.
  net::VirtualNetwork net;
  net::VirtualCaller sink(net, {.transport = net::TransportKind::kSoapTcp});
  counter::WstCounterDeployment dep({
      .backend = std::make_unique<xmldb::MemoryBackend>(),
      .container = {},
      .notification_sink = &sink,
      .address_base = "http://h.example",
      .subscription_file = {},
  });
  net.bind("h.example", dep.container());
  wsn::NotificationConsumer consumer;
  net.bind("c.example", consumer);

  net::VirtualCaller caller(net, {});
  counter::WstCounterClient client(caller, dep.counter_address(),
                                   dep.source_address());
  client.create();
  client.subscribe(soap::EndpointReference("http://c.example/sink"));

  constexpr int kThreads = 4;
  constexpr int kSetsPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&net, &dep, t] {
      net::VirtualCaller thread_caller(net, {});
      counter::WstCounterClient thread_client(
          thread_caller, dep.counter_address(), dep.source_address());
      // All threads hammer the same counter resource.
      thread_client.attach(soap::EndpointReference(dep.counter_address()));
      for (int i = 0; i < kSetsPerThread; ++i) {
        // Direct event trigger through set on distinct counters would race
        // on attach; instead each thread creates its own counter.
        counter::WstCounterClient own(thread_caller, dep.counter_address(),
                                      dep.source_address());
        own.create();
        own.set(t * 100 + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // The subscription is scoped to `client`'s counter via an XPath filter,
  // so none of the other counters' sets may leak through.
  EXPECT_EQ(consumer.count(), 0u);
  client.set(1);
  EXPECT_TRUE(consumer.wait_for(1, 2000));
  EXPECT_EQ(consumer.count(), 1u);
}

}  // namespace
}  // namespace gs
