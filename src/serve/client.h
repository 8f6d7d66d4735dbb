// Client side of the majc-req-v1 protocol: used by majc_load, the serve
// tests and anything else that wants a campaign served by majcd.
//
// The low-level Client is a thin frame pump over one connection (so the
// adversarial tests can also speak *broken* protocol through the same
// socket helpers); run_campaign() is the well-behaved driver of the full
// ack -> job* -> campaign-header -> raw-payload sequence.
#pragma once

#include <string>
#include <vector>

#include "src/serve/proto.h"

namespace majc::serve {

class Client {
public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(const std::string& socket_path, std::string* err);
  void close();
  int fd() const { return fd_; }

  /// Send one frame; false on a broken connection.
  bool send(std::string_view payload);
  /// Receive one frame (up to `max_bytes`); false on EOF/error.
  bool recv(std::string* payload, u64 max_bytes = 256u << 20);

private:
  int fd_ = -1;
};

/// One job summary frame from a campaign stream.
struct JobSummary {
  u64 index = 0;
  std::string kernel;
  std::string mode;
  u64 iteration = 0;
  bool valid = false;
  bool halted = false;
  u64 arch_digest = 0;
  std::string failure_class;
};

/// Everything a campaign request streamed back.
struct CampaignReply {
  bool ok = false;           // full sequence received
  bool acked = false;        // admission ack seen (even if a later error)
  std::string error_code;    // non-empty when the server answered `error`
  std::string error_message;
  std::vector<JobSummary> jobs;
  u64 failures = 0;
  std::string campaign;      // the raw majc-farm-v1 payload, byte-exact
};

/// Drive one campaign request to completion. Returns false only on
/// transport failure (err filled); a structured server error still returns
/// true with reply->ok == false and the code/message captured.
bool run_campaign(Client& c, const CampaignRequest& req, CampaignReply* reply,
                  std::string* err);

/// Request + parse the daemon's stats frame.
bool fetch_stats(Client& c, u64 id, ServeStats* out, std::string* err);

/// Ping/pong round trip (liveness probe).
bool ping(Client& c, u64 id, std::string* err);

} // namespace majc::serve
