// Differential battery for the majcd serving path (src/serve/).
//
// The daemon's contract is that serving is *transparent*: a campaign
// requested over the majc-req-v1 socket protocol streams back a
// majc-farm-v1 payload byte-identical to what the offline path
// (majc_farm -j1 / farm::campaign_json) produces for the same parameters.
// These tests run a real Server on a unique unix socket and compare served
// bytes against an in-process reference built through the exact CLI code
// path — table12_spec + submit_matrix + campaign_json — across the full
// 16-kernel table, both sim modes, both functional backends, named and
// inline-source kernels, and repeated (cache-hitting) requests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <string>
#include <vector>

#include "src/farm/campaign.h"
#include "src/farm/farm.h"
#include "src/kernels/table12.h"
#include "src/serve/client.h"
#include "src/serve/proto.h"
#include "src/serve/server.h"

using namespace majc;

namespace {

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/majcd-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

/// Build the offline reference for a request: the same canonical expansion
/// and serialization majc_farm uses, run serially.
std::string build_reference_campaign(const serve::CampaignRequest& req) {
  farm::Engine eng;
  if (!req.source_text.empty()) {
    kernels::KernelSpec spec;
    spec.name = req.source_name;
    spec.source = req.source_text;
    eng.add_kernel(std::move(spec));
  } else {
    for (const std::string& name : req.kernels) {
      const kernels::NamedKernel* nk = kernels::find_table12_kernel(name);
      EXPECT_NE(nk, nullptr) << name;
      eng.add_kernel(kernels::table12_spec(*nk));
    }
  }
  farm::MatrixSpec m;
  for (u64 it = 0; it < req.seeds; ++it) m.iterations.push_back(it);
  m.base_seed = req.seed;
  m.faults = req.faults;
  m.mode_cycle = req.mode == "cycle" || req.mode == "both";
  m.mode_functional = req.mode == "functional" || req.mode == "both";
  m.backend = req.backend == "interp" ? sim::ExecBackend::kInterp
                                      : sim::ExecBackend::kThreaded;
  m.policy = req.policy;
  farm::submit_matrix(eng, m);
  return farm::campaign_json(eng, eng.run(1u), req.seed);
}

/// build_reference_campaign, memoized per distinct request for the life of
/// the binary: two tests serve the same full-table functional campaign, and
/// the reference is the expensive half of each. The key is the request's
/// wire form with its id zeroed; the id names a request on a connection and
/// does not reach the payload.
std::string reference_campaign(const serve::CampaignRequest& req) {
  static std::map<std::string, std::string> built;
  serve::CampaignRequest key = req;
  key.id = 0;
  const auto [it, fresh] = built.try_emplace(serve::campaign_request_json(key));
  if (fresh) it->second = build_reference_campaign(req);
  return it->second;
}

std::vector<std::string> all_table12_names() {
  std::vector<std::string> names;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    names.push_back(nk.name);
  }
  return names;
}

class ServeTest : public ::testing::Test {
protected:
  void start(serve::ServerConfig cfg = {}) {
    cfg.socket_path = unique_socket_path();
    cfg.workers = 2;
    server_ = std::make_unique<serve::Server>(std::move(cfg));
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
  }

  serve::CampaignReply serve_one(const serve::CampaignRequest& req) {
    serve::Client client;
    std::string err;
    EXPECT_TRUE(client.connect(server_->config().socket_path, &err)) << err;
    serve::CampaignReply reply;
    EXPECT_TRUE(serve::run_campaign(client, req, &reply, &err)) << err;
    return reply;
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeTest, FullTableCycleServedBytesMatchOffline) {
  start();
  serve::CampaignRequest req;
  req.id = 1;
  req.kernels = all_table12_names();
  req.mode = "cycle";
  req.seeds = 1;
  const serve::CampaignReply reply = serve_one(req);
  ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  EXPECT_TRUE(reply.acked);
  EXPECT_EQ(reply.jobs.size(), 16u);
  EXPECT_EQ(reply.failures, 0u);
  EXPECT_EQ(reply.campaign, reference_campaign(req));
}

TEST_F(ServeTest, FullTableFunctionalBothBackendsMatchOffline) {
  start();
  for (const char* backend : {"threaded", "interp"}) {
    serve::CampaignRequest req;
    req.id = 2;
    req.kernels = all_table12_names();
    req.mode = "functional";
    req.backend = backend;
    req.seeds = 2;
    const serve::CampaignReply reply = serve_one(req);
    ASSERT_TRUE(reply.ok)
        << backend << ": " << reply.error_code << ": " << reply.error_message;
    EXPECT_EQ(reply.jobs.size(), 32u) << backend;
    EXPECT_EQ(reply.campaign, reference_campaign(req)) << backend;
  }
}

TEST_F(ServeTest, BothModesMatrixMatchesOffline) {
  start();
  serve::CampaignRequest req;
  req.id = 3;
  req.kernels = {"fir", "bitrev", "idct", "vld"};
  req.mode = "both";
  req.seeds = 2;
  req.seed = 0x1234;
  const serve::CampaignReply reply = serve_one(req);
  ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  // kernel-major, iteration, cycle-before-functional: 4 x 2 x 2 jobs.
  ASSERT_EQ(reply.jobs.size(), 16u);
  EXPECT_EQ(reply.jobs[0].kernel, "fir");
  EXPECT_EQ(reply.jobs[0].mode, "cycle");
  EXPECT_EQ(reply.jobs[1].kernel, "fir");
  EXPECT_EQ(reply.jobs[1].mode, "functional");
  EXPECT_EQ(reply.jobs[15].kernel, "vld");
  EXPECT_EQ(reply.campaign, reference_campaign(req));
}

TEST_F(ServeTest, InlineSourceKernelMatchesOffline) {
  start();
  serve::CampaignRequest req;
  req.id = 4;
  req.source_name = "tiny";
  req.source_text = "halt\n";
  req.mode = "both";
  req.seeds = 2;
  const serve::CampaignReply reply = serve_one(req);
  ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  EXPECT_EQ(reply.jobs.size(), 4u);
  EXPECT_EQ(reply.jobs[0].kernel, "tiny");
  EXPECT_EQ(reply.campaign, reference_campaign(req));
}

TEST_F(ServeTest, NoFaultsSweepMatchesOffline) {
  start();
  serve::CampaignRequest req;
  req.id = 5;
  req.kernels = {"biquad", "max_search"};
  req.mode = "functional";
  req.seeds = 2;
  req.faults = false;
  const serve::CampaignReply reply = serve_one(req);
  ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  EXPECT_EQ(reply.campaign, reference_campaign(req));
}

TEST_F(ServeTest, RepeatedRequestsAreByteIdenticalAcrossConnections) {
  start();
  serve::CampaignRequest req;
  req.id = 6;
  req.kernels = {"fir", "fft_radix2"};
  req.mode = "functional";
  req.seeds = 1;
  // Three requests over three fresh connections: first compiles (well,
  // preloaded), later ones hit the cache — every payload must be identical.
  const serve::CampaignReply first = serve_one(req);
  ASSERT_TRUE(first.ok) << first.error_code;
  for (int i = 0; i < 2; ++i) {
    const serve::CampaignReply again = serve_one(req);
    ASSERT_TRUE(again.ok) << again.error_code;
    EXPECT_EQ(again.campaign, first.campaign);
  }
  EXPECT_EQ(first.campaign, reference_campaign(req));
}

TEST_F(ServeTest, MultiWorkerServingMatchesSerialReference) {
  serve::ServerConfig cfg;
  cfg.workers = 4;  // served campaign runs on 4 farm workers
  start(cfg);
  serve::CampaignRequest req;
  req.id = 7;
  req.kernels = all_table12_names();
  req.mode = "functional";
  req.seeds = 2;
  const serve::CampaignReply reply = serve_one(req);
  ASSERT_TRUE(reply.ok) << reply.error_code << ": " << reply.error_message;
  // The worker count must be invisible in the payload (farm determinism).
  EXPECT_EQ(reply.campaign, reference_campaign(req));
}

TEST_F(ServeTest, StatsAndPingRoundTrip) {
  start();
  serve::Client client;
  std::string err;
  ASSERT_TRUE(client.connect(server_->config().socket_path, &err)) << err;
  ASSERT_TRUE(serve::ping(client, 1, &err)) << err;
  serve::ServeStats before;
  ASSERT_TRUE(serve::fetch_stats(client, 2, &before, &err)) << err;
  EXPECT_EQ(before.campaigns_served, 0u);
  EXPECT_EQ(before.cache_misses, 16u);  // table12 preload
  EXPECT_FALSE(before.draining);

  serve::CampaignRequest req;
  req.id = 3;
  req.kernels = {"fir"};
  req.mode = "functional";
  serve::CampaignReply reply;
  ASSERT_TRUE(serve::run_campaign(client, req, &reply, &err)) << err;
  ASSERT_TRUE(reply.ok);

  serve::ServeStats after;
  ASSERT_TRUE(serve::fetch_stats(client, 4, &after, &err)) << err;
  EXPECT_EQ(after.campaigns_served, 1u);
  EXPECT_EQ(after.jobs_served, 1u);
  EXPECT_EQ(after.active_campaigns, 0u);
}

} // namespace
