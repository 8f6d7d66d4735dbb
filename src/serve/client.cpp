#include "src/serve/client.h"

#include <unistd.h>

#include "src/serve/wire.h"

namespace majc::serve {
namespace {

bool transport_fail(std::string* err, const char* what, WireStatus st) {
  if (err != nullptr) {
    *err = std::string(what) + ": " + wire_status_name(st);
  }
  return false;
}

/// Parse one majc-rsp-v1 frame; false on malformed payload.
bool parse_response(const std::string& payload, JValue* out,
                    std::string* err) {
  std::string perr;
  if (!json_parse(payload, out, &perr)) {
    if (err != nullptr) *err = "malformed response: " + perr;
    return false;
  }
  if (out->member_string("schema", "") != kRspSchema) {
    if (err != nullptr) *err = "response missing majc-rsp-v1 schema";
    return false;
  }
  return true;
}

bool capture_error(const JValue& rsp, CampaignReply* reply) {
  reply->error_code = rsp.member_string("code", "unknown");
  reply->error_message = rsp.member_string("message", "");
  return true;
}

} // namespace

bool Client::connect(const std::string& socket_path, std::string* err) {
  close();
  fd_ = connect_unix(socket_path, err);
  return fd_ >= 0;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::send(std::string_view payload) {
  return fd_ >= 0 && write_frame(fd_, payload) == WireStatus::kOk;
}

bool Client::recv(std::string* payload, u64 max_bytes) {
  return fd_ >= 0 && read_frame(fd_, payload, max_bytes) == WireStatus::kOk;
}

bool run_campaign(Client& c, const CampaignRequest& req, CampaignReply* reply,
                  std::string* err) {
  *reply = CampaignReply{};
  if (!c.send(campaign_request_json(req))) {
    return transport_fail(err, "send", WireStatus::kError);
  }
  std::string payload;
  for (;;) {
    if (!c.recv(&payload)) {
      return transport_fail(err, "recv", WireStatus::kEof);
    }
    JValue rsp;
    if (!parse_response(payload, &rsp, err)) return false;
    const std::string type = rsp.member_string("type", "");
    if (type == "error") return capture_error(rsp, reply);
    if (type == "ack") {
      reply->acked = true;
      continue;
    }
    if (type == "job") {
      JobSummary js;
      js.index = rsp.member_u64("index", 0);
      js.kernel = rsp.member_string("kernel", "");
      js.mode = rsp.member_string("mode", "");
      js.iteration = rsp.member_u64("iteration", 0);
      js.valid = rsp.member_bool("valid", false);
      js.halted = rsp.member_bool("halted", false);
      js.arch_digest = rsp.member_u64("arch_digest", 0);
      js.failure_class = rsp.member_string("failure_class", "");
      reply->jobs.push_back(std::move(js));
      continue;
    }
    if (type == "campaign") {
      reply->failures = rsp.member_u64("failures", 0);
      const u64 bytes = rsp.member_u64("payload_bytes", 0);
      // The next frame is the raw majc-farm-v1 payload, byte-exact.
      if (!c.recv(&reply->campaign)) {
        return transport_fail(err, "recv campaign payload", WireStatus::kEof);
      }
      if (reply->campaign.size() != bytes) {
        if (err != nullptr) *err = "campaign payload size mismatch";
        return false;
      }
      reply->ok = true;
      return true;
    }
    if (err != nullptr) *err = "unexpected response type '" + type + "'";
    return false;
  }
}

bool fetch_stats(Client& c, u64 id, ServeStats* out, std::string* err) {
  if (!c.send(stats_request_json(id))) {
    return transport_fail(err, "send", WireStatus::kError);
  }
  std::string payload;
  if (!c.recv(&payload)) {
    return transport_fail(err, "recv", WireStatus::kEof);
  }
  JValue rsp;
  if (!parse_response(payload, &rsp, err)) return false;
  if (rsp.member_string("type", "") != "stats") {
    if (err != nullptr) *err = "expected stats response";
    return false;
  }
  *out = ServeStats{};
  out->cache_hits = rsp.member_u64("cache_hits", 0);
  out->cache_misses = rsp.member_u64("cache_misses", 0);
  out->cache_entries = rsp.member_u64("cache_entries", 0);
  out->campaigns_served = rsp.member_u64("campaigns_served", 0);
  out->jobs_served = rsp.member_u64("jobs_served", 0);
  out->errors_sent = rsp.member_u64("errors_sent", 0);
  out->active_campaigns = rsp.member_u64("active_campaigns", 0);
  out->queued_campaigns = rsp.member_u64("queued_campaigns", 0);
  out->machines_built = rsp.member_u64("machines_built", 0);
  out->draining = rsp.member_bool("draining", false);
  return true;
}

bool ping(Client& c, u64 id, std::string* err) {
  if (!c.send(ping_request_json(id))) {
    return transport_fail(err, "send", WireStatus::kError);
  }
  std::string payload;
  if (!c.recv(&payload)) {
    return transport_fail(err, "recv", WireStatus::kEof);
  }
  JValue rsp;
  if (!parse_response(payload, &rsp, err)) return false;
  if (rsp.member_string("type", "") != "pong") {
    if (err != nullptr) *err = "expected pong";
    return false;
  }
  return true;
}

} // namespace majc::serve
