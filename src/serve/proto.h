// The majc-req-v1 / majc-rsp-v1 message model.
//
// One request frame carries one JSON object; the daemon answers with a
// sequence of response frames. For a campaign request the sequence is:
//
//   ack                          admitted: a farm slot is now running it
//   job (x num_jobs)             per-job summaries, in submission order
//   campaign (header)            job/failure counts + the payload size
//   <raw majc-farm-v1 bytes>     one frame whose payload is EXACTLY the
//                                campaign JSON majc_farm would write
//
// The final frame is deliberately raw (not wrapped in majc-rsp-v1): the
// whole point of the daemon is that served bytes are indistinguishable
// from `majc_farm --json` bytes, and JSON-in-JSON string escaping would
// force clients to unescape before comparing. The preceding header frame
// announces its exact byte length.
//
// Every failure is a structured `error` frame with a machine-readable
// `code`; the connection stays usable afterwards except where the stream
// itself is unrecoverable (`oversized`: the unread payload bytes make
// reframing impossible, so the server closes after replying).
#pragma once

#include <string>
#include <vector>

#include "src/farm/farm.h"
#include "src/serve/json_in.h"

namespace majc::serve {

inline constexpr const char* kReqSchema = "majc-req-v1";
inline constexpr const char* kRspSchema = "majc-rsp-v1";

/// Machine-readable error codes carried in `error` frames.
namespace errc {
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kUnknownKernel = "unknown-kernel";
inline constexpr const char* kAssemblyError = "assembly-error";
inline constexpr const char* kOversized = "oversized";
inline constexpr const char* kQuotaExceeded = "quota-exceeded";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kDraining = "draining";
inline constexpr const char* kInternal = "internal";
} // namespace errc

/// A campaign request: which kernels, which matrix, which policy. Either
/// `kernels` (canonical Table 1/2 names, precompiled server-side) or an
/// inline `source_*` kernel (assembled once, then content-addressed in the
/// daemon's cache).
struct CampaignRequest {
  u64 id = 0;
  std::vector<std::string> kernels;
  std::string source_name;
  std::string source_text;  // non-empty selects assemble-source mode
  std::string mode = "cycle";        // cycle | functional | both
  std::string backend = "threaded";  // interp | threaded (functional jobs)
  u64 seed = 0x5eed50a4;             // fault-stream base seed
  u64 seeds = 1;       // iteration count (0..seeds-1) when `iterations` empty
  std::vector<u64> iterations;  // explicit iteration/seed list
  bool faults = true;
  u64 workers = 0;  // farm workers for this campaign (0 = server default)
  farm::JobPolicy policy;
};

// ---- client-side serialization ----

std::string campaign_request_json(const CampaignRequest& r);
std::string stats_request_json(u64 id);
std::string ping_request_json(u64 id);

// ---- server-side parsing ----

/// Validate + extract a campaign request from a parsed frame. On failure
/// returns false and fills (code, message) for the error reply.
bool parse_campaign_request(const JValue& v, CampaignRequest* out,
                            std::string* code, std::string* message);

// ---- server-side response serialization ----

std::string error_response(u64 id, std::string_view code,
                           std::string_view message);
std::string ack_response(u64 id);
std::string pong_response(u64 id);
std::string job_response(u64 id, u64 index, const std::string& kernel,
                         const char* mode, u64 iteration, bool valid,
                         bool halted, u64 arch_digest,
                         const char* failure_class);

struct ServeStats {
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_entries = 0;
  u64 campaigns_served = 0;
  u64 jobs_served = 0;
  u64 errors_sent = 0;
  u64 active_campaigns = 0;
  u64 queued_campaigns = 0;
  /// Machines (cycle and functional) the server's pool has constructed;
  /// host-only, like every other field here.
  u64 machines_built = 0;
  bool draining = false;
};

std::string stats_response(u64 id, const ServeStats& s);
std::string campaign_header_response(u64 id, u64 num_jobs, u64 failures,
                                     u64 payload_bytes);

} // namespace majc::serve
