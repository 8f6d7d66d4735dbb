// Adversarial protocol battery for majcd (src/serve/).
//
// Every abuse a local peer can throw at the daemon must produce a
// structured `error` frame (machine-readable code) or a clean disconnect —
// never a crash, a hang, a poisoned connection slot, or a corrupted reply
// to a *different* client. Each scenario ends with the proof that matters:
// a follow-up well-formed request on a fresh connection succeeds and the
// server's admission state is back to idle.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/kernels/table12.h"
#include "src/serve/client.h"
#include "src/serve/json_in.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

using namespace majc;

namespace {

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/majcd-proto-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

/// A campaign big enough (16 kernels x `seeds`, cycle mode: seconds of
/// guest time at 2 seeds) that the test can act while it is still executing.
serve::CampaignRequest slow_request(u64 id, u64 seeds = 2) {
  serve::CampaignRequest req;
  req.id = id;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    req.kernels.push_back(nk.name);
  }
  req.mode = "cycle";
  req.seeds = seeds;
  return req;
}

serve::CampaignRequest quick_request(u64 id) {
  serve::CampaignRequest req;
  req.id = id;
  req.kernels = {"fir"};
  req.mode = "functional";
  req.seeds = 1;
  return req;
}

class ServeProtocolTest : public ::testing::Test {
protected:
  void start(serve::ServerConfig cfg = {}) {
    cfg.socket_path = unique_socket_path();
    server_ = std::make_unique<serve::Server>(std::move(cfg));
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
  }

  bool connect(serve::Client* c) {
    std::string err;
    const bool ok = c->connect(server_->config().socket_path, &err);
    EXPECT_TRUE(ok) << err;
    return ok;
  }

  /// Expect the next frame to be a structured error with `code`.
  void expect_error(serve::Client* c, const char* code) {
    std::string payload;
    ASSERT_TRUE(c->recv(&payload));
    serve::JValue rsp;
    std::string perr;
    ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
    EXPECT_EQ(rsp.member_string("type", ""), "error");
    EXPECT_EQ(rsp.member_string("code", ""), code)
        << rsp.member_string("message", "");
  }

  /// The recovery proof shared by every scenario: a fresh connection gets a
  /// full campaign served, and admission is idle again.
  void expect_server_healthy() {
    serve::Client c;
    ASSERT_TRUE(connect(&c));
    std::string err;
    ASSERT_TRUE(serve::ping(c, 900, &err)) << err;
    // Wait for slot accounting to unwind first: a client can observe its
    // final campaign frame a beat before the serving thread releases the
    // slot, and with max_queue=0 a too-eager follow-up would bounce
    // `overloaded` spuriously.
    bool idle = false;
    for (int i = 0; i < 100 && !idle; ++i) {
      serve::ServeStats s;
      ASSERT_TRUE(serve::fetch_stats(c, 902, &s, &err)) << err;
      idle = s.active_campaigns == 0 && s.queued_campaigns == 0;
      if (!idle) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(idle) << "admission slots never returned to idle";
    serve::CampaignReply reply;
    ASSERT_TRUE(serve::run_campaign(c, quick_request(901), &reply, &err))
        << err;
    ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  }

  /// Poll the server's stats until `done(stats)` holds (5 s at most).
  template <typename Pred>
  serve::ServeStats wait_stats(serve::Client* c, Pred done) {
    serve::ServeStats s;
    std::string err;
    for (int i = 0; i < 500; ++i) {
      EXPECT_TRUE(serve::fetch_stats(*c, 904, &s, &err)) << err;
      if (done(s)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return s;
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeProtocolTest, GarbageJsonGetsBadRequestAndConnectionSurvives) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  ASSERT_TRUE(c.send("this is not json {"));
  expect_error(&c, "bad-request");
  // Same connection still speaks protocol.
  std::string err;
  EXPECT_TRUE(serve::ping(c, 1, &err)) << err;
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, WrongSchemaAndUnknownTypeAreStructuredErrors) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  ASSERT_TRUE(c.send(R"({"schema":"majc-req-v9","type":"campaign"})"));
  expect_error(&c, "bad-request");
  ASSERT_TRUE(c.send(R"({"schema":"majc-req-v1","type":"launch-missiles"})"));
  expect_error(&c, "bad-request");
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, TruncatedFrameDisconnectsWithoutPoisoningServer) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  // Announce 100 bytes, deliver 10, vanish.
  const unsigned char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(c.fd(), header, 4, 0), 4);
  ASSERT_EQ(::send(c.fd(), "0123456789", 10, 0), 10);
  c.close();
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, OversizedFrameGetsErrorThenClose) {
  serve::ServerConfig cfg;
  cfg.max_request_bytes = 1024;
  start(cfg);
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  // A header announcing 1 MiB against a 1 KiB limit: the server must reply
  // `oversized` WITHOUT reading the payload, then close (the stream cannot
  // be resynchronized).
  const u32 huge = 1u << 20;
  ASSERT_EQ(::send(c.fd(), &huge, 4, 0), 4);
  expect_error(&c, "oversized");
  std::string payload;
  EXPECT_FALSE(c.recv(&payload));  // orderly close follows
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, MaximalLengthPrefixIsRejected) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  const u32 huge = 0xFFFFFFFFu;
  ASSERT_EQ(::send(c.fd(), &huge, 4, 0), 4);
  expect_error(&c, "oversized");
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, UnknownKernelAndBadParametersAreRecoverable) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  std::string err;

  serve::CampaignRequest req = quick_request(1);
  req.kernels = {"fir", "definitely_not_a_kernel"};
  serve::CampaignReply reply;
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error_code, "unknown-kernel");

  req = quick_request(2);
  req.mode = "warp-speed";
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_EQ(reply.error_code, "bad-request");

  req = quick_request(3);
  req.backend = "jit";
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_EQ(reply.error_code, "bad-request");

  req = quick_request(4);
  req.seeds = 0;  // empty matrix: same class of usage error majc_farm exits
                  // 2 on — the daemon's analogue is a structured rejection
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_EQ(reply.error_code, "bad-request");

  req = quick_request(5);
  req.seeds = 1ull << 62;  // rejected before the seed list is materialized
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_EQ(reply.error_code, "bad-request");

  // All on ONE connection, which still works afterwards.
  ASSERT_TRUE(serve::run_campaign(c, quick_request(6), &reply, &err)) << err;
  EXPECT_TRUE(reply.ok) << reply.error_code;
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, AssemblySyntaxErrorIsStructured) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  serve::CampaignRequest req;
  req.id = 1;
  req.source_name = "broken";
  req.source_text = "frobnicate g1, g2\n";
  serve::CampaignReply reply;
  std::string err;
  ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error_code, "assembly-error");
  EXPECT_FALSE(reply.error_message.empty());
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, QuotaFloodIsCappedPerConnection) {
  serve::ServerConfig cfg;
  cfg.per_client_quota = 2;
  start(cfg);
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  std::string err;
  serve::CampaignReply reply;
  for (u64 i = 1; i <= 2; ++i) {
    ASSERT_TRUE(serve::run_campaign(c, quick_request(i), &reply, &err)) << err;
    EXPECT_TRUE(reply.ok) << reply.error_code;
  }
  // Third and later campaigns on this connection are over quota...
  for (u64 i = 3; i <= 5; ++i) {
    ASSERT_TRUE(serve::run_campaign(c, quick_request(i), &reply, &err)) << err;
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error_code, "quota-exceeded");
  }
  // ...but the quota is per connection, not per process: a fresh one works
  // (expect_server_healthy runs a campaign on a new connection).
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, AdmissionQueueFullIsOverloadedNotHang) {
  serve::ServerConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 0;  // no waiting: the second campaign must bounce
  start(cfg);

  serve::Client slow;
  ASSERT_TRUE(connect(&slow));
  // Drive the slow campaign manually so we can act between ack and result.
  ASSERT_TRUE(slow.send(serve::campaign_request_json(slow_request(1))));
  std::string payload;
  ASSERT_TRUE(slow.recv(&payload));
  serve::JValue rsp;
  std::string perr;
  ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
  ASSERT_EQ(rsp.member_string("type", ""), "ack");  // slot now held

  serve::Client bounced;
  ASSERT_TRUE(connect(&bounced));
  serve::CampaignReply reply;
  std::string err;
  ASSERT_TRUE(serve::run_campaign(bounced, quick_request(2), &reply, &err))
      << err;
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error_code, "overloaded");

  // The slow campaign is unharmed: drain its stream to the raw payload.
  u64 announced = 0;
  for (;;) {
    ASSERT_TRUE(slow.recv(&payload));
    ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
    const std::string type = rsp.member_string("type", "");
    ASSERT_TRUE(type == "job" || type == "campaign") << type;
    if (type == "campaign") {
      announced = rsp.member_u64("payload_bytes", 0);
      break;
    }
  }
  ASSERT_TRUE(slow.recv(&payload));
  EXPECT_EQ(payload.size(), announced);
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, DisconnectMidStreamReleasesSlot) {
  serve::ServerConfig cfg;
  cfg.max_concurrent = 1;
  start(cfg);
  {
    serve::Client c;
    ASSERT_TRUE(connect(&c));
    // 256 cycle jobs: far longer to run out than expect_server_healthy's
    // 5 s idle wait, so the slot frees in time only if the hang-up cancels
    // the campaign.
    ASSERT_TRUE(c.send(serve::campaign_request_json(slow_request(1, 16))));
    std::string payload;
    ASSERT_TRUE(c.recv(&payload));  // ack: the campaign is executing
    c.close();                      // vanish mid-campaign
  }
  // The server must notice the dead peer, abort the campaign, and release
  // the (only) slot — expect_server_healthy would otherwise wait out the
  // whole campaign on admission and fail.
  expect_server_healthy();
  // Only the health check's one-job campaign counts as served. Its serving
  // thread counts it before releasing the slot, so wait for idle first.
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  serve::ServeStats s;
  std::string err;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(serve::fetch_stats(c, 903, &s, &err)) << err;
    if (s.active_campaigns == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(s.active_campaigns, 0u);
  EXPECT_EQ(s.campaigns_served, 1u);
  EXPECT_EQ(s.jobs_served, 1u);
}

TEST_F(ServeProtocolTest, DrainWithInFlightCampaignDoesNotHang) {
  start();
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  ASSERT_TRUE(c.send(serve::campaign_request_json(slow_request(1))));
  std::string payload;
  ASSERT_TRUE(c.recv(&payload));  // ack

  server_->begin_shutdown();

  // The in-flight campaign resolves quickly one of two ways: a `draining`
  // error (interrupted at a slice/job boundary) or — if it won the race —
  // its complete, well-formed stream. Either way the stream terminates and
  // stop() joins without hanging (the test TIMEOUT is the backstop).
  bool saw_draining = false;
  bool saw_campaign = false;
  while (c.recv(&payload)) {
    serve::JValue rsp;
    std::string perr;
    ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
    const std::string type = rsp.member_string("type", "");
    if (type == "error") {
      EXPECT_EQ(rsp.member_string("code", ""), "draining");
      saw_draining = true;
      break;
    }
    if (rsp.member_string("schema", "") != "majc-rsp-v1") {
      saw_campaign = true;  // the raw majc-farm-v1 payload
      break;
    }
  }
  EXPECT_TRUE(saw_draining || saw_campaign);

  // New connections are refused (accept loop is down) or at minimum no new
  // campaign is admitted; either way stop() must complete promptly.
  server_->stop();
  serve::Client after;
  std::string err;
  if (after.connect(server_->config().socket_path, &err)) {
    serve::CampaignReply reply;
    if (serve::run_campaign(after, quick_request(2), &reply, &err)) {
      EXPECT_FALSE(reply.ok);
    }
  }
  server_.reset();
}

/// Read the frames of a campaign stream up to and including its raw
/// majc-farm-v1 payload.
void drain_campaign(serve::Client* c) {
  std::string payload;
  for (;;) {
    ASSERT_TRUE(c->recv(&payload));
    serve::JValue rsp;
    std::string perr;
    ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
    const std::string type = rsp.member_string("type", "");
    ASSERT_TRUE(type == "ack" || type == "job" || type == "campaign") << type;
    if (type == "campaign") break;
  }
  ASSERT_TRUE(c->recv(&payload));
}

TEST_F(ServeProtocolTest, QueuedCampaignsAreAdmittedInArrivalOrder) {
  serve::ServerConfig cfg;
  cfg.max_concurrent = 1;
  start(cfg);
  serve::Client stats;
  ASSERT_TRUE(connect(&stats));
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE(trial);
    // The holder takes the only slot, and its next campaign is already
    // waiting in its socket when the first one ends: the serving thread
    // asks for a slot again the moment it releases one. It must queue
    // behind A, B and C, not overtake them.
    serve::Client holder;
    ASSERT_TRUE(connect(&holder));
    ASSERT_TRUE(holder.send(serve::campaign_request_json(slow_request(1, 1))));
    std::string payload;
    ASSERT_TRUE(holder.recv(&payload));  // ack: the slot is held
    ASSERT_TRUE(holder.send(serve::campaign_request_json(quick_request(2))));
    std::string err;
    serve::ServeStats before;
    ASSERT_TRUE(serve::fetch_stats(stats, 905, &before, &err)) << err;

    // Queue A, B and C, in that order. Each holds the slot, once admitted,
    // until its client hangs up.
    std::array<serve::Client, 3> queued;
    for (u64 i = 0; i < queued.size(); ++i) {
      ASSERT_TRUE(connect(&queued[i]));
      ASSERT_TRUE(
          queued[i].send(serve::campaign_request_json(slow_request(10 + i, 16))));
      const serve::ServeStats s = wait_stats(
          &stats, [&](const serve::ServeStats& st) {
            return st.queued_campaigns == i + 1;
          });
      ASSERT_EQ(s.queued_campaigns, i + 1);
    }
    serve::ServeStats filled;
    ASSERT_TRUE(serve::fetch_stats(stats, 906, &filled, &err)) << err;
    ASSERT_EQ(filled.campaigns_served, before.campaigns_served)
        << "the holding campaign ended before the queue filled";

    // Release: the holder's first campaign runs to its end.
    drain_campaign(&holder);

    // Admission order is A, B, C, holder: each next ack arrives before any
    // later waiter's, and hanging up frees the slot for the next one.
    const std::array<serve::Client*, 4> waiters = {&queued[0], &queued[1],
                                                   &queued[2], &holder};
    for (std::size_t next = 0; next < waiters.size(); ++next) {
      std::vector<pollfd> pfds;
      for (std::size_t i = next; i < waiters.size(); ++i) {
        pfds.push_back({waiters[i]->fd(), POLLIN, 0});
      }
      ASSERT_GT(::poll(pfds.data(), pfds.size(), 30'000), 0);
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        EXPECT_EQ(pfds[i].revents, 0)
            << "waiter " << next + i << " admitted before waiter " << next;
      }
      ASSERT_NE(pfds[0].revents & POLLIN, 0) << "waiter " << next;
      ASSERT_TRUE(waiters[next]->recv(&payload));
      serve::JValue rsp;
      std::string perr;
      ASSERT_TRUE(serve::json_parse(payload, &rsp, &perr)) << perr;
      ASSERT_EQ(rsp.member_string("type", ""), "ack");
      waiters[next]->close();
    }
  }
  expect_server_healthy();
}

TEST_F(ServeProtocolTest, ServerReusesMachinesAcrossCampaigns) {
  start();  // one farm worker, two admission slots
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  std::string err;
  serve::CampaignReply first;
  for (u64 i = 1; i <= 5; ++i) {
    serve::CampaignRequest req = quick_request(i);
    req.mode = "both";
    serve::CampaignReply reply;
    ASSERT_TRUE(serve::run_campaign(c, req, &reply, &err)) << err;
    ASSERT_TRUE(reply.ok) << reply.error_code;
    if (i == 1) first = reply;
    EXPECT_EQ(reply.campaign, first.campaign);
  }
  // One cycle and one functional machine, built by the first campaign.
  serve::ServeStats s;
  ASSERT_TRUE(serve::fetch_stats(c, 6, &s, &err)) << err;
  EXPECT_EQ(s.machines_built, 2u);
}

TEST_F(ServeProtocolTest, ConcurrentCampaignsBuildAtMostOneSetPerSlot) {
  serve::ServerConfig cfg;
  cfg.max_concurrent = 2;
  start(cfg);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (u64 t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c;
      std::string err;
      if (!c.connect(server_->config().socket_path, &err)) {
        ++failures;
        return;
      }
      for (u64 i = 0; i < 3; ++i) {
        serve::CampaignRequest req = quick_request(10 * t + i);
        req.mode = "both";
        serve::CampaignReply reply;
        if (!serve::run_campaign(c, req, &reply, &err) || !reply.ok) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  serve::Client c;
  ASSERT_TRUE(connect(&c));
  const serve::ServeStats s = wait_stats(
      &c, [](const serve::ServeStats& st) { return st.campaigns_served == 6; });
  EXPECT_EQ(s.campaigns_served, 6u);
  EXPECT_GE(s.machines_built, 2u);
  EXPECT_LE(s.machines_built, 2u * cfg.max_concurrent);
}

TEST_F(ServeProtocolTest, ManyParallelClientsAllGetCorrectStreams) {
  serve::ServerConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue = 16;
  start(cfg);
  constexpr int kClients = 6;
  std::vector<std::string> campaigns(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      serve::Client c;
      std::string err;
      if (!c.connect(server_->config().socket_path, &err)) {
        ++failures;
        return;
      }
      serve::CampaignReply reply;
      if (!serve::run_campaign(c, quick_request(static_cast<u64>(i) + 1),
                               &reply, &err) ||
          !reply.ok) {
        ++failures;
        return;
      }
      campaigns[i] = reply.campaign;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Identical requests from six interleaved clients: identical bytes.
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(campaigns[i], campaigns[0]) << i;
  }
}

} // namespace
