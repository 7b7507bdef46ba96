// The traced run's span recorder. It sits OUTSIDE the program, on both ends
// of the C1<->C2 link:
//   * TracingEndpoint decorates C1's Endpoint: every frame C1 sends opens
//     an exchange (keyed by correlation id), the reply closes it;
//   * WrapC2Handler wraps C2Service::Handle inside the RpcServer handler,
//     so C2's busy time per frame is timed where the work happens.
// Spans stay in memory; WriteJsonLines writes them out when the run ends.
// Recording can be switched off so the same topology runs untraced.
#ifndef QBENCH_TRACE_H_
#define QBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "net/endpoint.h"
#include "net/rpc.h"
#include "proto/c2_service.h"

namespace qbench {

/// \brief One C1->C2 request and its reply, as C1's endpoint saw them.
struct Exchange {
  uint64_t correlation_id = 0;
  uint64_t query_id = 0;
  uint16_t opcode = 0;
  double send = 0;  // request handed to the link
  double recv = 0;  // reply taken off the link
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
};

/// \brief One C2Service::Handle call.
struct C2Handle {
  uint64_t correlation_id = 0;
  uint64_t query_id = 0;
  uint16_t opcode = 0;
  double start = 0;
  double end = 0;
};

/// \brief A client-observed request interval, for the span tree's roots.
struct ClientSpan {
  double start = 0;
  double end = 0;
  bool cache_hit = false;
};

/// \brief Short name of a C2 opcode (proto/opcodes.h), "op<N>" if unknown.
std::string OpcodeName(uint16_t opcode);
/// \brief The opcodes the per-opcode metrics report, in output order.
const std::vector<uint16_t>& ReportedOpcodes();

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  void OnSend(const std::vector<uint8_t>& frame);
  void OnRecv(const std::vector<uint8_t>& frame);
  void OnHandled(const sknn::Message& request, double start, double end);

  /// \brief Completed exchanges and C2 handle spans recorded so far.
  std::vector<Exchange> exchanges() const;
  std::vector<C2Handle> handles() const;

  /// \brief Writes every span — client requests, C1 exchanges, C2 handle
  /// calls — one JSON object per line with id, parent, name, start, end and
  /// query id. An exchange's parent is the client request whose interval
  /// holds its query's exchanges; a handle's parent is its exchange.
  bool WriteJsonLines(const std::string& path,
                      const std::vector<ClientSpan>& clients) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable sknn::Mutex mutex_;
  std::map<uint64_t, Exchange> open_ GUARDED_BY(mutex_);
  std::vector<Exchange> done_ GUARDED_BY(mutex_);
  std::vector<C2Handle> handles_ GUARDED_BY(mutex_);
};

/// \brief C1's side of the link, decorated: forwards every call to `inner`
/// and reports frames to the tracer while it records.
class TracingEndpoint : public sknn::Endpoint {
 public:
  TracingEndpoint(std::unique_ptr<sknn::Endpoint> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Send(std::vector<uint8_t> frame) override;
  bool Recv(std::vector<uint8_t>* frame) override;
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<sknn::Endpoint> inner_;
  Tracer* tracer_;
};

/// \brief The RpcServer handler for `c2`, timing each Handle call into
/// `tracer` (null = plain pass-through).
sknn::RpcServer::Handler WrapC2Handler(sknn::C2Service* c2, Tracer* tracer);

}  // namespace qbench

#endif  // QBENCH_TRACE_H_
