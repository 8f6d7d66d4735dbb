#include "src/serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <system_error>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/farm/campaign.h"
#include "src/serve/wire.h"

namespace majc::serve {
namespace {

/// Watches a client socket while its campaign runs. A peer that closes the
/// connection cancels the campaign at the next job (or slice) boundary, so
/// its admission slot frees within one job instead of after the whole run.
/// POLLHUP, not POLLRDHUP: it needs a full peer close, so neither a client
/// half-close nor the SHUT_RD that begin_shutdown issues triggers it.
class HangupWatch {
public:
  // Without a pipe or a thread the campaign runs unwatched, to its end.
  HangupWatch(int fd, farm::RunControl* control) {
    if (::pipe(wake_) != 0) return;
    try {
      thread_ = std::thread([this, fd, control] {
        pollfd pfds[2] = {{fd, 0, 0}, {wake_[0], POLLIN, 0}};
        while (::poll(pfds, 2, -1) < 0 && errno == EINTR) {
        }
        if ((pfds[0].revents & POLLHUP) != 0 && pfds[1].revents == 0) {
          hung_up_.store(true);
          control->request_cancel();
        }
      });
    } catch (const std::system_error&) {
    }
  }
  ~HangupWatch() {
    if (thread_.joinable()) {
      const char wake = 0;
      while (::write(wake_[1], &wake, 1) < 0 && errno == EINTR) {
      }
      thread_.join();
    }
    for (const int fd : wake_) {
      if (fd >= 0) ::close(fd);
    }
  }
  HangupWatch(const HangupWatch&) = delete;
  HangupWatch& operator=(const HangupWatch&) = delete;

  bool hung_up() const { return hung_up_.load(); }

private:
  int wake_[2] = {-1, -1};
  std::atomic<bool> hung_up_{false};
  std::thread thread_;
};

} // namespace

struct Server::Conn {
  int fd = -1;
  std::thread thread;
  /// Set as the thread's last action: a done connection's thread is
  /// join-able without blocking (the accept loop reaps them).
  std::atomic<bool> done{false};
  /// Campaign requests attempted on this connection (the quota counter).
  u32 campaigns = 0;
};

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.max_concurrent == 0) cfg_.max_concurrent = 1;
  if (cfg_.workers == 0) cfg_.workers = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  cache_.preload_table12();
  listen_fd_ = listen_unix(cfg_.socket_path, /*backlog=*/64, err);
  if (listen_fd_ < 0) return false;
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (cfg_.verbose) {
    std::fprintf(stderr, "majcd: serving on %s (%u slots, queue %u)\n",
                 cfg_.socket_path.c_str(), cfg_.max_concurrent,
                 cfg_.max_queue);
  }
  return true;
}

void Server::begin_shutdown() {
  if (stopping_.exchange(true)) return;
  // Wake queued admissions so they can answer `draining`. Notifying under
  // the mutex means no waiter can test the flag and then miss the wake-up.
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    admit_cv_.notify_all();
  }
  // Interrupt in-flight campaigns at their next slice/job boundary.
  {
    std::lock_guard<std::mutex> lk(controls_mu_);
    for (farm::RunControl* ctl : active_controls_) ctl->request_drain();
  }
  // Unblock connection threads parked in recv() — SHUT_RD turns their
  // pending read into an orderly EOF while leaving the write side up for
  // any error frame still owed.
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (const auto& c : conns_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }
  if (cfg_.verbose) std::fprintf(stderr, "majcd: draining\n");
}

void Server::stop() {
  if (!started_.load()) return;
  begin_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(cfg_.socket_path.c_str());
  }
  machines_.clear();  // every campaign has ended, so no set is lent out
  started_.store(false);
}

ServeStats Server::stats() const {
  ServeStats s;
  const KernelCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_entries = cs.entries;
  s.campaigns_served = campaigns_served_.load();
  s.jobs_served = jobs_served_.load();
  s.errors_sent = errors_sent_.load();
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    s.active_campaigns = running_;
    s.queued_campaigns = queued_;
  }
  s.machines_built = machines_.machines_built();
  s.draining = stopping_.load();
  return s;
}

void Server::accept_loop() {
  std::vector<std::unique_ptr<Conn>> dead;
  while (!stopping_.load()) {
    // Reap finished connections (join outside conns_mu_: a finishing
    // thread takes that mutex to close its fd).
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto& c : conns_) {
        if (c->done.load()) dead.push_back(std::move(c));
      }
      conns_.erase(std::remove(conns_.begin(), conns_.end(), nullptr),
                   conns_.end());
    }
    for (auto& c : dead) {
      if (c->thread.joinable()) c->thread.join();
    }
    dead.clear();

    // Poll-with-timeout instead of a blocking accept: shutdown is then a
    // flag check away, with no self-connect or signal tricks to wake us.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    if (stopping_.load()) {
      ::close(cfd);
      break;
    }
    if (cfg_.idle_timeout_secs > 0) {
      set_recv_timeout(cfd, cfg_.idle_timeout_secs);
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = cfd;
    Conn* c = conn.get();
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    c->thread = std::thread([this, c] { serve_connection(c); });
  }
}

bool Server::send_error(Conn* conn, u64 id, const char* code,
                        std::string_view message) {
  errors_sent_.fetch_add(1);
  if (cfg_.verbose) {
    std::fprintf(stderr, "majcd: error reply %s: %.*s\n", code,
                 static_cast<int>(message.size()), message.data());
  }
  return write_frame(conn->fd, error_response(id, code, message)) ==
         WireStatus::kOk;
}

void Server::serve_connection(Conn* conn) {
  std::string payload;
  for (;;) {
    if (stopping_.load()) break;
    const WireStatus st = read_frame(conn->fd, &payload,
                                     cfg_.max_request_bytes);
    if (st == WireStatus::kTooBig) {
      // The unread payload makes resync impossible: answer, then close.
      send_error(conn, 0, errc::kOversized,
                 "request frame exceeds max_request_bytes");
      break;
    }
    if (st != WireStatus::kOk) break;  // EOF, timeout or socket error

    JValue req;
    std::string perr;
    if (!json_parse(payload, &req, &perr)) {
      if (!send_error(conn, 0, errc::kBadRequest,
                      "malformed JSON: " + perr)) {
        break;
      }
      continue;
    }
    const u64 id = req.member_u64("id", 0);
    if (!req.is_object() ||
        req.member_string("schema", "") != kReqSchema) {
      if (!send_error(conn, id, errc::kBadRequest,
                      "expected schema majc-req-v1")) {
        break;
      }
      continue;
    }
    const std::string type = req.member_string("type", "campaign");
    if (type == "ping") {
      if (write_frame(conn->fd, pong_response(id)) != WireStatus::kOk) break;
      continue;
    }
    if (type == "stats") {
      if (write_frame(conn->fd, stats_response(id, stats())) !=
          WireStatus::kOk) {
        break;
      }
      continue;
    }
    if (type == "campaign") {
      if (!handle_campaign(conn, req)) break;
      continue;
    }
    if (!send_error(conn, id, errc::kBadRequest,
                    "unknown request type '" + type + "'")) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);
}

Server::Admit Server::admit() {
  std::unique_lock<std::mutex> lk(admit_mu_);
  if (stopping_.load()) return Admit::kDraining;
  if (queued_ == 0 && running_ < cfg_.max_concurrent) {
    ++running_;
    return Admit::kAdmitted;
  }
  if (queued_ >= cfg_.max_queue) return Admit::kOverloaded;
  const u64 ticket = next_ticket_++;
  ++queued_;
  admit_cv_.wait(lk, [&] {
    return stopping_.load() ||
           (ticket == serving_ticket_ && running_ < cfg_.max_concurrent);
  });
  --queued_;
  // A drained waiter leaves its ticket unserved: every later one drains too.
  if (stopping_.load()) return Admit::kDraining;
  ++serving_ticket_;
  ++running_;
  // The next ticket may fit a slot that is still free.
  admit_cv_.notify_all();
  return Admit::kAdmitted;
}

void Server::release() {
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    --running_;
  }
  // Only the next ticket can take the slot, and notify_one might wake
  // another waiter.
  admit_cv_.notify_all();
}

bool Server::handle_campaign(Conn* conn, const JValue& req) {
  CampaignRequest r;
  std::string code, message;
  if (!parse_campaign_request(req, &r, &code, &message)) {
    return send_error(conn, req.member_u64("id", 0), code.c_str(), message);
  }

  // Per-client quota: counted per attempted campaign, before admission, so
  // a flood cannot hold slots hostage past its allowance.
  ++conn->campaigns;
  if (cfg_.per_client_quota != 0 && conn->campaigns > cfg_.per_client_quota) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "per-client quota of %u campaign(s) exhausted",
                  cfg_.per_client_quota);
    return send_error(conn, r.id, errc::kQuotaExceeded, msg);
  }

  // Resolve kernels through the content-addressed cache.
  std::vector<std::shared_ptr<const kernels::CompiledKernel>> compiled;
  if (!r.source_text.empty()) {
    try {
      compiled.push_back(cache_.get_or_compile(r.source_name, r.source_text));
    } catch (const std::exception& e) {
      return send_error(conn, r.id, errc::kAssemblyError, e.what());
    }
  } else {
    for (const std::string& name : r.kernels) {
      auto k = cache_.get_named(name);
      if (k == nullptr) {
        return send_error(conn, r.id, errc::kUnknownKernel,
                          "unknown kernel '" + name + "'");
      }
      compiled.push_back(std::move(k));
    }
  }

  // Bound the matrix before materializing anything: `seeds` is a raw u64
  // from the wire, so the product is checked by division, not multiplied.
  const u64 per_seed = compiled.size() * (r.mode == "both" ? 2 : 1);
  const u64 seeds = r.iterations.empty() ? r.seeds : r.iterations.size();
  if (per_seed == 0 || seeds == 0 ||
      seeds > cfg_.max_jobs_per_request / per_seed) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "campaign matrix of %llu seed(s) x %llu job(s) outside "
                  "[1, %llu] jobs",
                  static_cast<unsigned long long>(seeds),
                  static_cast<unsigned long long>(per_seed),
                  static_cast<unsigned long long>(cfg_.max_jobs_per_request));
    return send_error(conn, r.id, errc::kBadRequest, msg);
  }
  std::vector<u64> iterations = r.iterations;
  if (iterations.empty()) {
    iterations.reserve(seeds);
    for (u64 it = 0; it < seeds; ++it) iterations.push_back(it);
  }

  switch (admit()) {
    case Admit::kDraining:
      return send_error(conn, r.id, errc::kDraining,
                        "server is draining; resubmit elsewhere");
    case Admit::kOverloaded:
      return send_error(conn, r.id, errc::kOverloaded,
                        "admission queue full; back off and retry");
    case Admit::kAdmitted:
      break;
  }
  // Holding a slot from here on: every return path must release().
  bool conn_alive = true;
  try {
    if (write_frame(conn->fd, ack_response(r.id)) != WireStatus::kOk) {
      release();
      return false;
    }

    farm::Engine eng;
    for (const auto& k : compiled) eng.add_kernel(*k);
    farm::MatrixSpec m;
    m.iterations = std::move(iterations);
    m.base_seed = r.seed;
    m.faults = r.faults;
    m.mode_cycle = r.mode == "cycle" || r.mode == "both";
    m.mode_functional = r.mode == "functional" || r.mode == "both";
    m.backend = r.backend == "interp" ? sim::ExecBackend::kInterp
                                      : sim::ExecBackend::kThreaded;
    m.policy = r.policy;
    farm::submit_matrix(eng, m);

    farm::RunControl control;
    // RAII registration: if eng.run throws, the control must still leave
    // active_controls_ before it goes out of scope (begin_shutdown walks
    // that list from another thread).
    struct ControlReg {
      Server* s;
      farm::RunControl* ctl;
      ControlReg(Server* s, farm::RunControl* ctl) : s(s), ctl(ctl) {
        std::lock_guard<std::mutex> lk(s->controls_mu_);
        s->active_controls_.push_back(ctl);
      }
      ~ControlReg() {
        std::lock_guard<std::mutex> lk(s->controls_mu_);
        s->active_controls_.erase(std::remove(s->active_controls_.begin(),
                                              s->active_controls_.end(), ctl),
                                  s->active_controls_.end());
      }
    } reg(this, &control);
    farm::Engine::RunOptions opts;
    opts.workers = static_cast<unsigned>(
        r.workers != 0 ? std::min<u64>(r.workers, cfg_.workers)
                       : cfg_.workers);
    opts.control = &control;
    opts.machines = &machines_;
    HangupWatch watch(conn->fd, &control);
    const std::vector<farm::JobResult> results = eng.run(opts);
    if (watch.hung_up()) {
      // Nobody is left to answer: the campaign was cancelled (or finished
      // unread). Free the slot and close without counting it as served.
      release();
      return false;
    }

    bool drained = false;
    for (const farm::JobResult& jr : results) {
      if (!jr.done) drained = true;
    }
    if (drained) {
      conn_alive = send_error(conn, r.id, errc::kDraining,
                              "campaign interrupted by server drain");
    } else {
      u64 failures = 0;
      for (std::size_t i = 0; i < results.size() && conn_alive; ++i) {
        const farm::Job& job = eng.jobs()[i];
        const kernels::KernelRun& run = results[i].run;
        if (!(run.valid && run.halted)) ++failures;
        conn_alive =
            write_frame(conn->fd,
                        job_response(r.id, i, eng.kernel(job.kernel).spec.name,
                                     farm::sim_mode_name(job.mode),
                                     job.iteration, run.valid, run.halted,
                                     run.arch_digest,
                                     farm::failure_class_name(
                                         results[i].failure))) ==
            WireStatus::kOk;
      }
      if (conn_alive) {
        const std::string campaign =
            farm::campaign_json(eng, results, r.seed);
        conn_alive =
            write_frame(conn->fd,
                        campaign_header_response(r.id, results.size(),
                                                 failures,
                                                 campaign.size())) ==
                WireStatus::kOk &&
            write_frame(conn->fd, campaign) == WireStatus::kOk;
      }
      if (conn_alive) {
        campaigns_served_.fetch_add(1);
        jobs_served_.fetch_add(results.size());
        if (cfg_.verbose) {
          std::fprintf(stderr,
                       "majcd: campaign id=%llu jobs=%zu failures=%llu\n",
                       static_cast<unsigned long long>(r.id), results.size(),
                       static_cast<unsigned long long>(failures));
        }
      }
    }
  } catch (const std::exception& e) {
    conn_alive = send_error(conn, r.id, errc::kInternal, e.what());
  }
  release();
  return conn_alive;
}

} // namespace majc::serve
