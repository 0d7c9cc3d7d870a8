// ServiceEndpoint — the glue between the epoll Server and a VolumeManager.
//
// Registers a handler for every wire verb against one VolumeManager:
// control verbs decode under kControlPayloadCap, the data-plane batch verbs
// (apply/query) under kDataPayloadCap. Handlers re-validate everything the
// payload claims (tenant names through the same validation open_volume
// uses, shard indexes against shard_count()) — the header's tenant hash is
// a scheduling hint, never an authority. Volume-not-hosted is answered with
// kNoSuchTenant; a QoS rejection propagates as kThrottled byte-for-byte to
// the remote caller.
//
// The endpoint owns the Server and a MetricsPoller (for the kPollRates
// verb); net counters land in the VolumeManager's MetricsRegistry.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>

#include "net/server.hpp"
#include "service/metrics.hpp"
#include "service/volume_manager.hpp"

namespace backlog::net {

class ServiceEndpoint {
 public:
  /// Registers every verb; does not listen yet.
  explicit ServiceEndpoint(service::VolumeManager& vm);

  /// Bind + serve. `options.metrics` is overridden to the VolumeManager's
  /// registry.
  void start(ServerOptions options);
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] const Server& server() const noexcept { return server_; }

 private:
  void register_handlers();

  service::VolumeManager& vm_;
  service::MetricsPoller poller_;
  std::mutex balance_mu_;  ///< kBalanceText cycles run exclusively
  Server server_;
};

/// A service root hosted the way backlogd hosts it: a VolumeManager with
/// the WAL on (an acked mutation is fsync-covered, so it is durable when
/// the caller sees the ack), every volume discover_volumes() finds opened,
/// and a ServiceEndpoint serving them. backlogd and the local form of
/// backlogctl's service commands (which serve 127.0.0.1, port 0, for the
/// length of one command) are both this.
class HostedRoot {
 public:
  /// Recovers and opens every volume under `root`, then starts serving.
  HostedRoot(const std::filesystem::path& root, std::size_t shards,
             std::uint32_t commit_window_micros, const ServerOptions& server);
  ~HostedRoot();  ///< stop(), reporting a failure on stderr

  HostedRoot(const HostedRoot&) = delete;
  HostedRoot& operator=(const HostedRoot&) = delete;

  /// Stop serving, then flush and close every hosted volume. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return endpoint_.port(); }
  /// Volumes discovered (and opened) at startup.
  [[nodiscard]] std::size_t volumes() const noexcept { return volumes_; }

 private:
  service::VolumeManager vm_;
  ServiceEndpoint endpoint_;
  std::size_t volumes_ = 0;
};

}  // namespace backlog::net
