// majcd's core: a campaign-serving daemon over the farm engine.
//
// The Server composes three unchanged layers — the deterministic farm
// engine (src/farm/), the compiled-kernel front end (src/kernels/) and the
// majc-farm-v1 campaign serializer — behind a local-socket protocol
// (src/serve/proto.h). Nothing engine-side knows it is being served: a
// request is expanded through the same farm::submit_matrix the majc_farm
// CLI uses and serialized by the same write_campaign_json, which is what
// makes served bytes ≡ CLI bytes a structural property rather than a
// maintained one (tests/test_serve.cpp pins it anyway).
//
// Serving-side mechanics, all request-scoped:
//   * admission — at most `max_concurrent` campaigns execute at once;
//     up to `max_queue` more wait (blocking their connection: that is the
//     backpressure signal a client feels); beyond that, a structured
//     `overloaded` error. Waiters are admitted in arrival order, and an
//     arrival never overtakes a waiter. The ack frame is sent on
//     admission, so a client that has its ack knows it holds an execution
//     slot.
//   * machine pool — campaigns take their farm workers' machines from one
//     server-owned farm::MachinePool, so only the first campaigns build
//     arenas; at most max_concurrent x workers sets exist, and stop()
//     frees them.
//   * per-client quota — `per_client_quota` campaigns per connection
//     (0 = unlimited); exceeding it earns `quota-exceeded`.
//   * kernel cache — named kernels are precompiled at startup; inline
//     sources are compiled once per unique (name, source) and shared
//     (src/serve/cache.h).
//   * drain — begin_shutdown() stops accepting, fails queued admissions
//     with `draining`, and interrupts in-flight campaigns through each
//     run's farm::RunControl drain token; their clients get a `draining`
//     error instead of a partial campaign. stop() then joins everything
//     and removes the socket file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/cache.h"
#include "src/serve/proto.h"

namespace majc::serve {

struct ServerConfig {
  std::string socket_path;
  /// Farm workers per campaign (requests may ask for fewer; they cannot
  /// exceed this).
  unsigned workers = 1;
  /// Campaigns executing concurrently (admission slots).
  unsigned max_concurrent = 2;
  /// Admitted-but-waiting ceiling; a request beyond slots+queue is
  /// rejected `overloaded` instead of blocking.
  unsigned max_queue = 8;
  /// Largest request frame accepted (larger earns `oversized` + close).
  u64 max_request_bytes = 1u << 20;
  /// Campaign requests allowed per connection (0 = unlimited).
  u32 per_client_quota = 0;
  /// Matrix-size ceiling per request (kernels x iterations x modes).
  u64 max_jobs_per_request = 4096;
  /// SO_RCVTIMEO on client connections (0 = none): a peer that sends half
  /// a frame and stalls is disconnected instead of pinning its thread.
  double idle_timeout_secs = 0.0;
  /// Announce lifecycle + per-campaign lines on stderr.
  bool verbose = false;
};

class Server {
public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start the accept loop. False + err on failure.
  bool start(std::string* err);

  /// Graceful drain: stop accepting, fail queued admissions, interrupt
  /// in-flight campaigns via their RunControl drain tokens. Safe from any
  /// thread (majcd calls it from its signal-wait thread). Idempotent.
  void begin_shutdown();

  /// begin_shutdown() + join accept/connection threads + unlink socket.
  void stop();

  ServeStats stats() const;
  const ServerConfig& config() const { return cfg_; }

private:
  struct Conn;

  void accept_loop();
  void serve_connection(Conn* conn);
  /// One campaign request end-to-end; returns false when the connection
  /// must close (peer gone / stream unrecoverable).
  bool handle_campaign(Conn* conn, const JValue& req);
  bool send_error(Conn* conn, u64 id, const char* code,
                  std::string_view message);

  // Admission control. Returns kAdmitted after acquiring a slot (possibly
  // blocking in the bounded queue, first come first served), or the
  // structured rejection.
  enum class Admit : u8 { kAdmitted, kOverloaded, kDraining };
  Admit admit();
  void release();

  ServerConfig cfg_;
  KernelCache cache_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  unsigned running_ = 0;
  unsigned queued_ = 0;
  // Queued admissions hold tickets; the one holding `serving_ticket_` is
  // next to take a free slot.
  u64 next_ticket_ = 0;
  u64 serving_ticket_ = 0;

  farm::MachinePool machines_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  // Live drain tokens of in-flight campaigns (owned by the executing
  // connection; registered here so begin_shutdown can reach them).
  mutable std::mutex controls_mu_;
  std::vector<farm::RunControl*> active_controls_;

  std::atomic<u64> campaigns_served_{0};
  std::atomic<u64> jobs_served_{0};
  std::atomic<u64> errors_sent_{0};
};

} // namespace majc::serve
