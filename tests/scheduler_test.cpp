// Tests for the batch scheduler subsystem: node registry liveness,
// fair-share policy, priority placement, EASY backfill's hard guarantee,
// cross-tier preemption, arrays and dependencies, the dual-stack
// SchedService (WSRF resource properties + WS-Transfer CRUD), heartbeats
// over the fabric, and the acceptance scenario — the same job's state
// transitions observed via WS-Notification AND WS-Eventing through routes
// dropping 30% of exchanges, with no lost terminal-state notification.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "net/retry.hpp"
#include "net/virtual_network.hpp"
#include "sched/client.hpp"
#include "sched/scheduler.hpp"
#include "sched/service.hpp"
#include "soap/envelope.hpp"
#include "wse/client.hpp"
#include "wse/service.hpp"
#include "wsn/client.hpp"
#include "wsn/consumer.hpp"
#include "wsn/producer.hpp"
#include "wsrf/resource.hpp"
#include "xmldb/database.hpp"

namespace gs::sched {
namespace {

// ---------------------------------------------------------------------------
// Core fixture: scheduler over a local registry/runner, no network.
// ---------------------------------------------------------------------------

struct SchedFixture {
  common::ManualClock clock{1000};
  app::JobRunner runner{clock};
  NodeRegistry nodes;
  telemetry::MetricsRegistry registry;  // local: counters independent of
                                        // other tests' global activity
  std::unique_ptr<Scheduler> sched;

  explicit SchedFixture(common::TimeMs heartbeat_timeout_ms = 30'000) {
    Scheduler::Config config;
    config.clock = &clock;
    config.runner = &runner;
    config.nodes = &nodes;
    config.heartbeat_timeout_ms = heartbeat_timeout_ms;
    config.metrics = &registry;
    sched = std::make_unique<Scheduler>(config);
  }

  void add_batch_partition() { sched->add_partition({.name = "batch"}); }

  void add_nodes(size_t count, unsigned cpus, std::uint64_t mem_mb,
                 std::vector<std::string> partitions = {"batch"}) {
    for (size_t i = 0; i < count; ++i) {
      nodes.upsert("n" + std::to_string(i), partitions, cpus, mem_mb,
                   clock.now());
    }
  }

  void heartbeat_all() {
    for (const NodeInfo& n : nodes.snapshot()) {
      nodes.heartbeat(n.name, clock.now());
    }
  }

  JobSpec sim_job(common::TimeMs duration_ms, unsigned cpus = 1,
                  common::TimeMs limit_ms = 0, int exit_code = 0) {
    JobSpec spec;
    spec.partition = "batch";
    spec.command = "sim:duration=" + std::to_string(duration_ms) +
                   ",exit=" + std::to_string(exit_code);
    spec.cpus = cpus;
    spec.time_limit_ms = limit_ms;
    return spec;
  }

  /// Drives passes and simulated time until the queue drains (or gives
  /// up); returns the number of passes run.
  int drain(int max_steps = 1000) {
    for (int i = 1; i <= max_steps; ++i) {
      sched->schedule_pass();
      if (sched->queue_depth() == 0 && sched->running_count() == 0) return i;
      auto next = sched->next_event_time();
      if (next && *next > clock.now()) {
        clock.advance(*next - clock.now());
      } else if (!next) {
        clock.advance(1000);
      }
      heartbeat_all();
    }
    return max_steps;
  }
};

// ---------------------------------------------------------------------------
// Node registry
// ---------------------------------------------------------------------------

TEST(NodeRegistry, TracksPartitionsSlotsAndLiveness) {
  common::ManualClock clock(1000);
  NodeRegistry reg;
  reg.upsert("n0", {"batch", "scavenge"}, 8, 16'000, clock.now());
  reg.upsert("n1", {"batch"}, 4, 8'000, clock.now());

  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.cpus_total(), 12u);
  EXPECT_EQ(reg.partition_nodes("batch").size(), 2u);
  EXPECT_EQ(reg.partition_nodes("scavenge").size(), 1u);
  EXPECT_FALSE(reg.find_fit("batch", 16, 1000).has_value());

  // First fit honors free slots.
  ASSERT_TRUE(reg.allocate("n0", 6, 1000));
  auto fit = reg.find_fit("batch", 4, 1000);
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(*fit, "n1");
  EXPECT_FALSE(reg.allocate("n0", 4, 1000));  // over-commit refused
  reg.release("n0", 6, 1000);
  EXPECT_EQ(reg.info("n0")->cpus_free(), 8u);

  // Drained nodes are excluded from placement but not downed.
  ASSERT_TRUE(reg.drain("n0"));
  EXPECT_EQ(*reg.find_fit("batch", 1, 1), "n1");
  ASSERT_TRUE(reg.resume("n0", clock.now()));

  // Silent nodes go DOWN on sweep; a heartbeat revives.
  clock.advance(60'000);
  reg.heartbeat("n1", clock.now());
  std::vector<std::string> downed = reg.sweep(clock.now(), 30'000);
  ASSERT_EQ(downed.size(), 1u);
  EXPECT_EQ(downed[0], "n0");
  EXPECT_EQ(reg.info("n0")->state, NodeState::kDown);
  EXPECT_EQ(reg.count(NodeState::kUp), 1u);
  EXPECT_TRUE(reg.heartbeat("n0", clock.now()));
  EXPECT_EQ(reg.info("n0")->state, NodeState::kUp);
  EXPECT_FALSE(reg.heartbeat("ghost", clock.now()));
}

TEST(NodeRegistry, ReRegistrationRefreshesPartitionsAndPreservesDrain) {
  common::ManualClock clock(1000);
  NodeRegistry reg;
  reg.upsert("n0", {"batch"}, 4, 8'000, clock.now());
  ASSERT_TRUE(reg.drain("n0"));
  reg.upsert("n0", {"scavenge"}, 8, 8'000, clock.now());
  EXPECT_EQ(reg.info("n0")->state, NodeState::kDrain);  // admin decision persists
  EXPECT_EQ(reg.info("n0")->cpus, 8u);
  EXPECT_TRUE(reg.partition_nodes("batch").empty());
  EXPECT_EQ(reg.partition_nodes("scavenge").size(), 1u);
}

// ---------------------------------------------------------------------------
// Fair-share
// ---------------------------------------------------------------------------

TEST(FairShare, HogsDecayTowardZeroAndHalfLifeForgives) {
  FairShareTracker fs(1000);  // half-life 1 s
  fs.set_shares("alice", 1.0);
  fs.set_shares("bob", 1.0);
  fs.decay(0);

  EXPECT_DOUBLE_EQ(fs.factor("alice"), 1.0);  // idle system
  fs.record_usage("alice", 10'000);
  // Alice holds 100% of usage with 50% of shares: F = 2^-2 = 0.25.
  EXPECT_NEAR(fs.factor("alice"), 0.25, 1e-9);
  EXPECT_NEAR(fs.factor("bob"), 1.0, 1e-9);  // bob used nothing

  fs.record_usage("bob", 10'000);
  // Equal usage, equal shares: both at 2^-1 = 0.5.
  EXPECT_NEAR(fs.factor("alice"), 0.5, 1e-9);
  EXPECT_NEAR(fs.factor("bob"), 0.5, 1e-9);

  fs.decay(1000);  // one half-life halves usage but not the ratio
  EXPECT_NEAR(fs.usage("alice"), 5'000, 1e-6);
  EXPECT_NEAR(fs.factor("alice"), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

TEST(Scheduler, PlacesRunsAndCompletesJobs) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(2, 4, 8'000);

  std::vector<std::pair<std::string, std::string>> seen;  // (id, to)
  fx.sched->on_transition([&](const JobInfo& info, JobState, JobState to) {
    seen.push_back({info.id, job_state_name(to)});
  });

  auto ids = fx.sched->submit(fx.sim_job(2000, 2));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(fx.sched->queue_depth(), 1u);

  auto result = fx.sched->schedule_pass();
  EXPECT_EQ(result.placed, 1u);
  EXPECT_EQ(result.backfilled, 0u);
  EXPECT_EQ(fx.sched->running_count(), 1u);
  auto info = fx.sched->info(ids[0]);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kRunning);
  EXPECT_FALSE(info->node.empty());
  EXPECT_EQ(fx.nodes.cpus_used(), 2u);

  fx.clock.advance(2000);
  fx.heartbeat_all();
  fx.sched->schedule_pass();
  info = fx.sched->info(ids[0]);
  EXPECT_EQ(info->state, JobState::kCompleted);
  EXPECT_EQ(info->exit_code, 0);
  EXPECT_EQ(fx.nodes.cpus_used(), 0u);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{ids[0], "RUNNING"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{ids[0], "COMPLETED"}));

  // CPU-time was charged to the account, and the telemetry moved.
  EXPECT_GT(fx.sched->fairshare_factor("other"),
            fx.sched->fairshare_factor("default"));
  EXPECT_EQ(fx.registry.counter("sched.jobs_placed").value(), 1u);
  EXPECT_EQ(fx.registry.counter("sched.jobs_completed").value(), 1u);
  EXPECT_EQ(fx.registry.gauge("sched.queue_depth").value(), 0);
  EXPECT_GT(fx.registry.histogram("sched.placement_wait_us").count(), 0u);
}

TEST(Scheduler, FairShareOrdersCompetingAccounts) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(1, 1, 1'000);  // room for exactly one job at a time
  fx.sched->set_account_shares("hog", 1.0);
  fx.sched->set_account_shares("fresh", 1.0);

  // The hog burns CPU time first.
  JobSpec hog_warmup = fx.sim_job(60'000);
  hog_warmup.account = "hog";
  fx.sched->submit(hog_warmup);
  fx.sched->schedule_pass();
  fx.clock.advance(60'000);
  fx.heartbeat_all();
  fx.sched->schedule_pass();

  // Same instant, same spec — only the account differs.
  JobSpec hog_job = fx.sim_job(1000);
  hog_job.account = "hog";
  JobSpec fresh_job = fx.sim_job(1000);
  fresh_job.account = "fresh";
  std::string hog_id = fx.sched->submit(hog_job)[0];     // submitted first...
  std::string fresh_id = fx.sched->submit(fresh_job)[0];

  EXPECT_GT(fx.sched->priority_of(fresh_id), fx.sched->priority_of(hog_id));
  fx.sched->schedule_pass();
  // ...but the fresh account's job runs first anyway.
  EXPECT_EQ(fx.sched->info(fresh_id)->state, JobState::kRunning);
  EXPECT_EQ(fx.sched->info(hog_id)->state, JobState::kPending);
}

TEST(Scheduler, BackfillFillsGapsButNeverDelaysTheReservedHead) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(1, 5, 10'000);

  // A occupies 3/5 cpus until t+100s (limit == duration).
  std::string a = fx.sched->submit(fx.sim_job(100'000, 3, 100'000))[0];
  // B needs the whole node: blocked, reserved (shadow = A's end).
  std::string b = fx.sched->submit(fx.sim_job(1000, 5, 10'000))[0];
  // C fits the gap and ends before the shadow: backfills.
  std::string c = fx.sched->submit(fx.sim_job(10'000, 1, 50'000))[0];
  // D fits the gap too but could outlive the shadow: must wait.
  std::string d = fx.sched->submit(fx.sim_job(10'000, 1, 200'000))[0];

  auto result = fx.sched->schedule_pass();
  EXPECT_EQ(result.placed, 2u);      // A and C
  EXPECT_EQ(result.backfilled, 1u);  // C only
  EXPECT_EQ(fx.sched->info(a)->state, JobState::kRunning);
  EXPECT_EQ(fx.sched->info(b)->state, JobState::kPending);
  EXPECT_EQ(fx.sched->info(b)->reason, "resources");
  EXPECT_EQ(fx.sched->info(c)->state, JobState::kRunning);
  EXPECT_TRUE(fx.sched->info(c)->backfilled);
  // The conservative guarantee: D stays pending although a cpu is free.
  EXPECT_EQ(fx.sched->info(d)->state, JobState::kPending);
  EXPECT_EQ(fx.nodes.info("n0")->cpus_free(), 1u);
  EXPECT_EQ(fx.registry.counter("sched.backfill_placed").value(), 1u);

  // Everything still completes, B without ever being delayed past A.
  fx.drain();
  for (const std::string& id : {a, b, c, d}) {
    EXPECT_EQ(fx.sched->info(id)->state, JobState::kCompleted) << id;
  }
  EXPECT_FALSE(fx.sched->info(b)->backfilled);
  EXPECT_EQ(fx.sched->info(b)->start_time, 101'000);  // exactly A's end
}

TEST(Scheduler, HigherTierPreemptsScavengeAndRequeuesVictims) {
  SchedFixture fx;
  fx.sched->add_partition(
      {.name = "batch", .priority = 10, .preempt_tier = 1});
  fx.sched->add_partition(
      {.name = "scavenge", .priority = 0, .preempt_tier = 0,
       .preemptable = true});
  fx.add_nodes(1, 4, 8'000, {"batch", "scavenge"});

  // Fill the node with scavenge work.
  JobSpec scav = fx.sim_job(100'000, 1, 200'000);
  scav.partition = "scavenge";
  std::vector<std::string> victims;
  for (int i = 0; i < 4; ++i) victims.push_back(fx.sched->submit(scav)[0]);
  fx.sched->schedule_pass();
  EXPECT_EQ(fx.sched->running_count(), 4u);

  // A batch job needing the whole node preempts all four.
  std::string batch_id = fx.sched->submit(fx.sim_job(5000, 4, 10'000))[0];
  std::vector<std::string> preempted_events;
  fx.sched->on_transition([&](const JobInfo& info, JobState, JobState to) {
    if (to == JobState::kPreempted) preempted_events.push_back(info.id);
  });
  auto result = fx.sched->schedule_pass();
  EXPECT_EQ(result.preempted, 4u);
  EXPECT_EQ(result.placed, 1u);
  EXPECT_EQ(fx.sched->info(batch_id)->state, JobState::kRunning);
  EXPECT_EQ(preempted_events.size(), 4u);
  for (const std::string& id : victims) {
    EXPECT_EQ(fx.sched->info(id)->state, JobState::kPending) << id;
    EXPECT_EQ(fx.sched->info(id)->preempt_count, 1);
    EXPECT_EQ(fx.sched->info(id)->reason, "preempted");
  }
  EXPECT_EQ(fx.runner.running_count(), 1u);  // victims really were killed

  // Scavenge jobs rerun after the batch job finishes; everything drains.
  fx.drain();
  for (const std::string& id : victims) {
    EXPECT_EQ(fx.sched->info(id)->state, JobState::kCompleted) << id;
  }
  EXPECT_EQ(fx.registry.counter("sched.jobs_preempted").value(), 4u);
}

TEST(Scheduler, TimeLimitKillsOverrunningJobs) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(1, 4, 8'000);
  // Wants 50 s but is only allowed 2 s.
  std::string id = fx.sched->submit(fx.sim_job(50'000, 1, 2000))[0];
  fx.sched->schedule_pass();
  fx.clock.advance(2000);
  fx.heartbeat_all();
  auto result = fx.sched->schedule_pass();
  EXPECT_EQ(result.timed_out, 1u);
  EXPECT_EQ(fx.sched->info(id)->state, JobState::kFailed);
  EXPECT_EQ(fx.sched->info(id)->reason, "timeout");
  EXPECT_EQ(fx.runner.running_count(), 0u);
  EXPECT_EQ(fx.nodes.cpus_used(), 0u);
  EXPECT_EQ(fx.registry.counter("sched.jobs_timed_out").value(), 1u);
}

TEST(Scheduler, SilentNodeGoesDownAndItsJobsRequeueElsewhere) {
  SchedFixture fx(/*heartbeat_timeout_ms=*/5000);
  fx.add_batch_partition();
  fx.add_nodes(2, 1, 1'000);

  std::string a = fx.sched->submit(fx.sim_job(20'000, 1, 60'000))[0];
  std::string b = fx.sched->submit(fx.sim_job(20'000, 1, 60'000))[0];
  fx.sched->schedule_pass();
  std::string a_node = fx.sched->info(a)->node;
  std::vector<std::string> requeue_reasons;
  fx.sched->on_transition([&](const JobInfo& info, JobState from, JobState to) {
    if (from == JobState::kRunning && to == JobState::kPending) {
      requeue_reasons.push_back(info.reason);
    }
  });

  // Only the OTHER node keeps heartbeating; a's node falls silent.
  fx.clock.advance(6000);
  for (const NodeInfo& n : fx.nodes.snapshot()) {
    if (n.name != a_node) fx.nodes.heartbeat(n.name, fx.clock.now());
  }
  auto result = fx.sched->schedule_pass();
  EXPECT_EQ(result.requeued, 1u);
  EXPECT_EQ(fx.nodes.info(a_node)->state, NodeState::kDown);
  auto info = fx.sched->info(a);
  // Requeued — and re-placed in the same pass only if the other node is
  // free, which it is not (b runs there): still pending. The requeue
  // transition carried the cause; the live reason now shows what blocks
  // the re-placement (SLURM's "Resources").
  EXPECT_EQ(info->state, JobState::kPending);
  ASSERT_EQ(requeue_reasons.size(), 1u);
  EXPECT_EQ(requeue_reasons[0], "node_fail");
  EXPECT_EQ(info->reason, "resources");
  EXPECT_EQ(fx.registry.counter("sched.nodes_downed").value(), 1u);

  // The downed node reports back in; everything drains.
  fx.nodes.heartbeat(a_node, fx.clock.now());
  fx.drain();
  EXPECT_EQ(fx.sched->info(a)->state, JobState::kCompleted);
  EXPECT_EQ(fx.sched->info(b)->state, JobState::kCompleted);
}

TEST(Scheduler, ArraysExpandAndAfterokDependenciesGate) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(2, 4, 8'000);

  JobSpec array = fx.sim_job(1000);
  array.array_count = 3;
  auto task_ids = fx.sched->submit(array);
  ASSERT_EQ(task_ids.size(), 3u);
  EXPECT_EQ(task_ids[1], task_ids[0].substr(0, task_ids[0].size() - 2) + "_1");

  JobSpec child = fx.sim_job(1000);
  child.depends_on = {task_ids[0], task_ids[1]};
  std::string child_id = fx.sched->submit(child)[0];

  fx.sched->schedule_pass();
  EXPECT_EQ(fx.sched->info(child_id)->state, JobState::kPending);  // gated
  EXPECT_EQ(fx.sched->running_count(), 3u);

  fx.drain();
  EXPECT_EQ(fx.sched->info(child_id)->state, JobState::kCompleted);

  // afterok means OK: a failing parent cancels the chain.
  std::string bad_parent =
      fx.sched->submit(fx.sim_job(1000, 1, 0, /*exit_code=*/7))[0];
  JobSpec doomed = fx.sim_job(1000);
  doomed.depends_on = {bad_parent};
  std::string doomed_id = fx.sched->submit(doomed)[0];
  JobSpec grandchild = fx.sim_job(1000);
  grandchild.depends_on = {doomed_id};
  std::string grandchild_id = fx.sched->submit(grandchild)[0];

  fx.drain();
  EXPECT_EQ(fx.sched->info(bad_parent)->state, JobState::kFailed);
  EXPECT_EQ(fx.sched->info(doomed_id)->state, JobState::kCancelled);
  EXPECT_EQ(fx.sched->info(doomed_id)->reason, "dependency");
  EXPECT_EQ(fx.sched->info(grandchild_id)->state, JobState::kCancelled);

  // Unknown dependencies are rejected outright.
  JobSpec orphan = fx.sim_job(1000);
  orphan.depends_on = {"job-9999"};
  EXPECT_THROW(fx.sched->submit(orphan), soap::SoapFault);
}

TEST(Scheduler, CancelKillsRunningJobsAndRejectsInvalidSubmits) {
  SchedFixture fx;
  fx.add_batch_partition();
  fx.add_nodes(1, 4, 8'000);

  std::string pending = fx.sched->submit(fx.sim_job(1000, 4))[0];
  std::string running = fx.sched->submit(fx.sim_job(100'000, 4))[0];
  fx.sched->schedule_pass();  // 'pending' was submitted first and runs
  EXPECT_EQ(fx.sched->info(pending)->state, JobState::kRunning);

  EXPECT_TRUE(fx.sched->cancel(pending));
  EXPECT_EQ(fx.sched->info(pending)->state, JobState::kCancelled);
  EXPECT_EQ(fx.runner.running_count(), 0u);
  EXPECT_EQ(fx.nodes.cpus_used(), 0u);
  EXPECT_TRUE(fx.sched->cancel(running));  // still pending: plain cancel
  EXPECT_FALSE(fx.sched->cancel(running));  // terminal: refused
  EXPECT_FALSE(fx.sched->cancel("job-404"));

  JobSpec bad = fx.sim_job(1000);
  bad.partition = "nope";
  EXPECT_THROW(fx.sched->submit(bad), soap::SoapFault);
  EXPECT_THROW(fx.sched->submit(fx.sim_job(1000, 64)), soap::SoapFault);
  JobSpec empty;
  empty.partition = "batch";
  EXPECT_THROW(fx.sched->submit(empty), soap::SoapFault);
}

// ---------------------------------------------------------------------------
// Dual-stack fixture: SchedService in a container on the virtual fabric,
// job events published through wsn AND wse, one consumer per stack.
// ---------------------------------------------------------------------------

struct ServiceFixture {
  common::ManualClock clock{1000};
  net::VirtualNetwork net;
  telemetry::MetricsRegistry registry;
  app::JobRunner runner{clock};
  NodeRegistry nodes;
  std::unique_ptr<Scheduler> sched;

  xmldb::XmlDatabase db{std::make_unique<xmldb::MemoryBackend>(), {}};
  container::Container container{{.clock = &clock}};
  wsrf::ResourceHome sub_home{db, "subs", &container.lifetime()};
  std::unique_ptr<wsn::SubscriptionManagerService> wsn_manager;
  std::unique_ptr<SchedService> service;
  std::unique_ptr<net::VirtualCaller> caller;        // clients and the fleet
  std::unique_ptr<net::VirtualCaller> wsn_raw_sink;  // producer -> consumers
  std::unique_ptr<net::RetryingCaller> wsn_sink;
  std::unique_ptr<wsn::NotificationProducer> wsn_producer;

  wse::SubscriptionStore store;
  std::unique_ptr<wse::WseSubscriptionManagerService> wse_manager;
  std::unique_ptr<wse::EventSourceService> event_source;
  std::unique_ptr<net::VirtualCaller> wse_raw_sink;
  std::unique_ptr<net::RetryingCaller> wse_sink;
  std::unique_ptr<wse::NotificationManager> notifier;

  wsn::NotificationConsumer wsn_consumer;  // at http://cw
  wsn::NotificationConsumer wse_consumer;  // at http://ce

  ServiceFixture() {
    Scheduler::Config config;
    config.clock = &clock;
    config.runner = &runner;
    config.nodes = &nodes;
    config.metrics = &registry;
    sched = std::make_unique<Scheduler>(config);
    sched->add_partition({.name = "batch"});

    // Retries advance nothing and sleep nowhere: the schedule is simulated,
    // so recovery through the seeded drops is deterministic and instant.
    net::RetryPolicy retry{
        .max_attempts = 8, .base_delay_ms = 1, .jitter = 0.0, .seed = 11};

    service = std::make_unique<SchedService>("http://sched/Sched", sched.get());
    wsn_manager = std::make_unique<wsn::SubscriptionManagerService>(
        sub_home, "http://sched/Subscriptions");
    wsn_raw_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{.keep_alive = false});
    wsn_sink = std::make_unique<net::RetryingCaller>(*wsn_raw_sink, retry,
                                                     &clock,
                                                     [](common::TimeMs) {});
    wsn_producer = std::make_unique<wsn::NotificationProducer>(
        wsn::NotificationProducer::Config{
            .sink_caller = wsn_sink.get(),
            .producer_address = "http://sched/Sched",
            .manager = wsn_manager.get(),
            .clock = &clock},
        sched_topics());
    wsn_producer->register_into(*service);

    wse_manager = std::make_unique<wse::WseSubscriptionManagerService>(
        store, "http://sched/WseSubscriptions", clock);
    event_source = std::make_unique<wse::EventSourceService>(
        "Events", store, *wse_manager, clock);
    wse_raw_sink = std::make_unique<net::VirtualCaller>(
        net, net::VirtualCaller::Options{});
    wse_sink = std::make_unique<net::RetryingCaller>(*wse_raw_sink, retry,
                                                     &clock,
                                                     [](common::TimeMs) {});
    notifier = std::make_unique<wse::NotificationManager>(store, *wse_sink,
                                                          clock);

    attach_job_publisher(*sched,
                         {.wsn = wsn_producer.get(), .wse = notifier.get()});

    container.deploy("/Sched", *service);
    container.deploy("/Subscriptions", *wsn_manager);
    container.deploy("/Events", *event_source);
    container.deploy("/WseSubscriptions", *wse_manager);
    net.bind("sched", container);
    net.bind("cw", wsn_consumer);
    net.bind("ce", wse_consumer);

    caller =
        std::make_unique<net::VirtualCaller>(net, net::VirtualCaller::Options{});
  }

  SchedClient client() { return SchedClient(*caller, "http://sched/Sched"); }

  void subscribe_both_stacks() {
    wsn::Filter filter;
    filter.set_topic(wsn::TopicExpression::parse(
        wsn::TopicExpression::Dialect::kConcrete, kJobTopic));
    wsn::NotificationProducerProxy wsn_proxy(
        *caller, soap::EndpointReference("http://sched/Sched"));
    wsn_proxy.subscribe(soap::EndpointReference("http://cw/sink"), filter);

    wse::EventSourceProxy wse_proxy(
        *caller, soap::EndpointReference("http://sched/Events"));
    wse_proxy.subscribe(soap::EndpointReference("http://ce/sink"),
                        wse::FilterDialect::kTopic, kJobTopic);
  }
};

TEST(SchedService, TransferCrudAndResourcePropertiesAgreeAcrossStacks) {
  ServiceFixture fx;
  SchedClient client = fx.client();

  // The fleet reports in over the fabric.
  FleetSimulator fleet(*fx.caller, "http://sched/Sched");
  fleet.provision(3, {"batch"}, 4, 8'000);
  EXPECT_EQ(fx.nodes.size(), 3u);
  EXPECT_EQ(fleet.tick(), 3u);

  // Submit (WS-Transfer Create) and run one pass through the service.
  JobSpec spec;
  spec.name = "render";
  spec.partition = "batch";
  spec.command = "sim:duration=2000,exit=0";
  spec.cpus = 2;
  auto ids = client.submit(spec);
  ASSERT_EQ(ids.size(), 1u);

  SchedClient::PassCounts counts = client.schedule_pass();
  EXPECT_EQ(counts.placed, 1u);
  EXPECT_EQ(counts.running, 1u);

  // Both stacks serve the same job state.
  auto wsrf_doc = client.document_wsrf();
  auto wst_doc = client.document_wst();
  for (xml::Element* doc : {wsrf_doc.get(), wst_doc.get()}) {
    bool found = false;
    for (const xml::Element* el : doc->child_elements()) {
      if (el->name().local() == "Job" && el->attr("id") == ids[0]) {
        EXPECT_EQ(el->attr("state"), std::optional<std::string>("RUNNING"));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }

  // WSRF property selection: the queue element and one job by id.
  auto queue = client.property("Queue");
  ASSERT_FALSE(queue->child_elements().empty());
  EXPECT_EQ(queue->child_elements()[0]->attr("running"),
            std::optional<std::string>("1"));
  auto by_id = client.property(ids[0]);
  ASSERT_FALSE(by_id->child_elements().empty());
  EXPECT_EQ(by_id->child_elements()[0]->attr("id"),
            std::optional<std::string>(ids[0]));
  EXPECT_THROW(client.property("job-404"), soap::SoapFault);

  // WS-Transfer Get of one job; Delete cancels it.
  auto job_el = client.job(ids[0]);
  EXPECT_EQ(job_el->attr("state"), std::optional<std::string>("RUNNING"));
  EXPECT_TRUE(client.cancel(ids[0]));
  EXPECT_EQ(client.job(ids[0])->attr("state"),
            std::optional<std::string>("CANCELLED"));
  EXPECT_THROW(client.cancel("job-404"), soap::SoapFault);

  // Drain/Resume through the service.
  client.drain(fleet.names()[0]);
  EXPECT_EQ(fx.nodes.info(fleet.names()[0])->state, NodeState::kDrain);
  client.resume(fleet.names()[0]);
  EXPECT_EQ(fx.nodes.info(fleet.names()[0])->state, NodeState::kUp);
  EXPECT_THROW(client.drain("ghost"), soap::SoapFault);
}

TEST(SchedService, FleetHeartbeatsOverFabricKeepNodesAliveAndReRegister) {
  ServiceFixture fx;
  SchedClient client = fx.client();
  FleetSimulator fleet(*fx.caller, "http://sched/Sched");
  fleet.provision(4, {"batch"}, 2, 4'000);

  // A node that stops heartbeating goes DOWN after the sweep timeout...
  fleet.fail("node3");
  fx.clock.advance(31'000);
  fleet.tick();
  client.schedule_pass();
  EXPECT_EQ(fx.nodes.info("node3")->state, NodeState::kDown);
  EXPECT_EQ(fx.nodes.count(NodeState::kUp), 3u);

  // ...and its first heartbeat after recovery revives it.
  fleet.recover("node3");
  fleet.tick();
  EXPECT_EQ(fx.nodes.info("node3")->state, NodeState::kUp);

  // An unknown node heartbeating (controller restart) re-registers itself.
  EXPECT_FALSE(client.heartbeat("nodeX"));
  FleetSimulator fresh(*fx.caller, "http://sched/Sched");
  fresh.provision(1, {"batch"}, 2, 4'000, "late");
  EXPECT_TRUE(client.heartbeat("late0"));
}

// The issue's acceptance scenario: the same job's transitions observed via
// WS-Notification AND WS-Eventing under a 30% seeded drop rate — the PR-2
// retry path recovers every drop, so neither stack loses the terminal
// transition.
TEST(SchedService, DualStackSubscribersSeeSameTransitionsThroughFaultyRoutes) {
  ServiceFixture fx;
  fx.subscribe_both_stacks();
  fx.net.set_fault_policy("cw", {.drop_probability = 0.3, .seed = 1234});
  fx.net.set_fault_policy("ce", {.drop_probability = 0.3, .seed = 4321});
  std::uint64_t faults_before = telemetry::MetricsRegistry::global()
                                    .counter("net.faults.injected")
                                    .value();

  FleetSimulator fleet(*fx.caller, "http://sched/Sched");
  fleet.provision(2, {"batch"}, 4, 8'000);

  SchedClient client = fx.client();
  JobSpec spec;
  spec.name = "observed";
  spec.partition = "batch";
  spec.command = "sim:duration=2000,exit=0";
  std::string id = client.submit(spec)[0];

  client.schedule_pass();        // PENDING -> RUNNING
  fx.clock.advance(2000);
  fleet.tick();
  client.schedule_pass();        // RUNNING -> COMPLETED

  ASSERT_TRUE(fx.wsn_consumer.wait_for(2, 1000));
  ASSERT_TRUE(fx.wse_consumer.wait_for(2, 1000));

  // Each stack saw the full life of the same job, in order, including the
  // terminal transition.
  struct Seen {
    std::vector<std::pair<std::string, std::string>> transitions;
  };
  auto digest = [&](const wsn::NotificationConsumer& consumer, bool expect_raw) {
    Seen seen;
    for (const wsn::ReceivedNotification& n : consumer.received()) {
      EXPECT_EQ(n.raw, expect_raw);
      if (!expect_raw) {
        EXPECT_EQ(n.topic, kJobTopic);
      }
      if (!n.payload) {
        ADD_FAILURE() << "notification with no payload";
        continue;
      }
      EXPECT_EQ(n.payload->attr("id"), std::optional<std::string>(id));
      seen.transitions.push_back({n.payload->attr("from").value_or(""),
                                  n.payload->attr("to").value_or("")});
    }
    return seen;
  };
  // wse raw events arrive unwrapped; wsn arrives Notify-wrapped with topic.
  Seen via_wsn = digest(fx.wsn_consumer, false);
  Seen via_wse = digest(fx.wse_consumer, true);
  std::vector<std::pair<std::string, std::string>> expected = {
      {"PENDING", "RUNNING"}, {"RUNNING", "COMPLETED"}};
  EXPECT_EQ(via_wsn.transitions, expected);
  EXPECT_EQ(via_wse.transitions, expected);

  // The faults really fired (the routes were not silently clean).
  EXPECT_GT(telemetry::MetricsRegistry::global()
                .counter("net.faults.injected")
                .value(),
            faults_before);
}

}  // namespace
}  // namespace gs::sched
