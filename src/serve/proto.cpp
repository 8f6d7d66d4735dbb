#include "src/serve/proto.h"

#include <algorithm>
#include <sstream>

#include "src/trace/json.h"

namespace majc::serve {
namespace {

/// Compact (single-line) writer: protocol frames are stream-parsed, not
/// human-read; the raw campaign payload keeps majc_farm's pretty layout.
struct Rsp {
  std::ostringstream os;
  trace::JsonWriter j{os, /*pretty=*/false};

  Rsp(u64 id, const char* type) {
    j.begin_object();
    j.kv("schema", kRspSchema);
    j.kv("id", id);
    j.kv("type", type);
  }
  std::string close() {
    j.end_object();
    return os.str();
  }
};

bool fail(std::string* code, std::string* message, const char* c,
          std::string m) {
  *code = c;
  *message = std::move(m);
  return false;
}

} // namespace

std::string campaign_request_json(const CampaignRequest& r) {
  std::ostringstream os;
  trace::JsonWriter j(os, /*pretty=*/false);
  j.begin_object();
  j.kv("schema", kReqSchema);
  j.kv("id", r.id);
  j.kv("type", "campaign");
  if (!r.source_text.empty()) {
    j.key("source").begin_object();
    j.kv("name", r.source_name);
    j.kv("text", r.source_text);
    j.end_object();
  } else {
    j.key("kernels").begin_array();
    for (const std::string& k : r.kernels) j.value(k);
    j.end_array();
  }
  j.kv("mode", r.mode);
  j.kv("backend", r.backend);
  j.kv("seed", r.seed);
  if (!r.iterations.empty()) {
    j.key("iterations").begin_array();
    for (const u64 it : r.iterations) j.value(it);
    j.end_array();
  } else {
    j.kv("seeds", r.seeds);
  }
  j.kv("faults", r.faults);
  if (r.workers != 0) j.kv("workers", r.workers);
  const farm::JobPolicy& p = r.policy;
  const farm::JobPolicy dflt;
  if (p.max_attempts != dflt.max_attempts ||
      p.host_deadline_secs != dflt.host_deadline_secs ||
      p.slice_packets != dflt.slice_packets ||
      p.backoff_base_us != dflt.backoff_base_us ||
      p.max_packets != dflt.max_packets) {
    j.key("policy").begin_object();
    j.kv("max_attempts", p.max_attempts);
    j.kv("deadline_secs", p.host_deadline_secs);
    j.kv("slice", p.slice_packets);
    j.kv("backoff_us", p.backoff_base_us);
    j.kv("max_packets", p.max_packets);
    j.end_object();
  }
  j.end_object();
  return os.str();
}

std::string stats_request_json(u64 id) {
  std::ostringstream os;
  trace::JsonWriter j(os, /*pretty=*/false);
  j.begin_object();
  j.kv("schema", kReqSchema);
  j.kv("id", id);
  j.kv("type", "stats");
  j.end_object();
  return os.str();
}

std::string ping_request_json(u64 id) {
  std::ostringstream os;
  trace::JsonWriter j(os, /*pretty=*/false);
  j.begin_object();
  j.kv("schema", kReqSchema);
  j.kv("id", id);
  j.kv("type", "ping");
  j.end_object();
  return os.str();
}

bool parse_campaign_request(const JValue& v, CampaignRequest* out,
                            std::string* code, std::string* message) {
  *out = CampaignRequest{};
  out->id = v.member_u64("id", 0);

  const JValue* source = v.find("source");
  const JValue* kernels = v.find("kernels");
  if (source != nullptr) {
    if (!source->is_object()) {
      return fail(code, message, errc::kBadRequest,
                  "'source' must be an object {name, text}");
    }
    out->source_name = source->member_string("name", "inline");
    out->source_text = source->member_string("text", "");
    if (out->source_text.empty()) {
      return fail(code, message, errc::kBadRequest,
                  "'source.text' must be a non-empty string");
    }
  } else if (kernels != nullptr) {
    if (!kernels->is_array() || kernels->arr.empty()) {
      return fail(code, message, errc::kBadRequest,
                  "'kernels' must be a non-empty array of names");
    }
    for (const JValue& k : kernels->arr) {
      if (!k.is_string() || k.str.empty()) {
        return fail(code, message, errc::kBadRequest,
                    "'kernels' entries must be non-empty strings");
      }
      out->kernels.push_back(k.str);
    }
  } else {
    return fail(code, message, errc::kBadRequest,
                "request needs 'kernels' or 'source'");
  }

  out->mode = v.member_string("mode", "cycle");
  if (out->mode != "cycle" && out->mode != "functional" &&
      out->mode != "both") {
    return fail(code, message, errc::kBadRequest,
                "'mode' must be cycle, functional or both");
  }
  out->backend = v.member_string("backend", "threaded");
  if (out->backend != "interp" && out->backend != "threaded") {
    return fail(code, message, errc::kBadRequest,
                "'backend' must be interp or threaded");
  }

  out->seed = v.member_u64("seed", out->seed);
  out->faults = v.member_bool("faults", true);
  out->workers = v.member_u64("workers", 0);

  if (const JValue* its = v.find("iterations"); its != nullptr) {
    if (!its->is_array() || its->arr.empty()) {
      return fail(code, message, errc::kBadRequest,
                  "'iterations' must be a non-empty array of integers");
    }
    for (const JValue& it : its->arr) {
      if (!it.is_number() || it.is_neg_int) {
        return fail(code, message, errc::kBadRequest,
                    "'iterations' entries must be non-negative integers");
      }
      out->iterations.push_back(it.get_u64(0));
    }
    out->seeds = out->iterations.size();
  } else {
    const JValue* seeds = v.find("seeds");
    if (seeds != nullptr && (!seeds->is_number() || seeds->is_neg_int)) {
      return fail(code, message, errc::kBadRequest,
                  "'seeds' must be a non-negative integer");
    }
    out->seeds = v.member_u64("seeds", 1);
    if (out->seeds == 0) {
      return fail(code, message, errc::kBadRequest,
                  "'seeds' must be >= 1 (empty campaign matrix)");
    }
  }

  if (const JValue* pol = v.find("policy"); pol != nullptr) {
    if (!pol->is_object()) {
      return fail(code, message, errc::kBadRequest,
                  "'policy' must be an object");
    }
    farm::JobPolicy& p = out->policy;
    p.max_attempts = static_cast<u32>(
        std::max<u64>(1, pol->member_u64("max_attempts", p.max_attempts)));
    p.host_deadline_secs =
        pol->member_double("deadline_secs", p.host_deadline_secs);
    p.slice_packets = pol->member_u64("slice", p.slice_packets);
    p.backoff_base_us = pol->member_u64("backoff_us", p.backoff_base_us);
    p.max_packets = pol->member_u64("max_packets", p.max_packets);
    if (p.host_deadline_secs < 0) {
      return fail(code, message, errc::kBadRequest,
                  "'policy.deadline_secs' must be >= 0");
    }
  }
  return true;
}

std::string error_response(u64 id, std::string_view code,
                           std::string_view message) {
  Rsp r(id, "error");
  r.j.kv("code", code);
  r.j.kv("message", message);
  return r.close();
}

std::string ack_response(u64 id) {
  Rsp r(id, "ack");
  return r.close();
}

std::string pong_response(u64 id) {
  Rsp r(id, "pong");
  return r.close();
}

std::string job_response(u64 id, u64 index, const std::string& kernel,
                         const char* mode, u64 iteration, bool valid,
                         bool halted, u64 arch_digest,
                         const char* failure_class) {
  Rsp r(id, "job");
  r.j.kv("index", index);
  r.j.kv("kernel", kernel);
  r.j.kv("mode", mode);
  r.j.kv("iteration", iteration);
  r.j.kv("valid", valid);
  r.j.kv("halted", halted);
  r.j.kv("arch_digest", arch_digest);
  r.j.kv("failure_class", failure_class);
  return r.close();
}

std::string stats_response(u64 id, const ServeStats& s) {
  Rsp r(id, "stats");
  r.j.kv("cache_hits", s.cache_hits);
  r.j.kv("cache_misses", s.cache_misses);
  r.j.kv("cache_entries", s.cache_entries);
  r.j.kv("campaigns_served", s.campaigns_served);
  r.j.kv("jobs_served", s.jobs_served);
  r.j.kv("errors_sent", s.errors_sent);
  r.j.kv("active_campaigns", s.active_campaigns);
  r.j.kv("queued_campaigns", s.queued_campaigns);
  r.j.kv("machines_built", s.machines_built);
  r.j.kv("draining", s.draining);
  return r.close();
}

std::string campaign_header_response(u64 id, u64 num_jobs, u64 failures,
                                     u64 payload_bytes) {
  Rsp r(id, "campaign");
  r.j.kv("num_jobs", num_jobs);
  r.j.kv("failures", failures);
  r.j.kv("payload_bytes", payload_bytes);
  return r.close();
}

} // namespace majc::serve
