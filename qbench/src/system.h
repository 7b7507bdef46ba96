// Standing up a workload's topology from its inputs, and driving it.
#ifndef QBENCH_SYSTEM_H_
#define QBENCH_SYSTEM_H_

#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "crypto/paillier.h"
#include "proto/c2_service.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "trace.h"

namespace qbench {

/// \brief Everything one run stands up. Members are declared in dependency
/// order, so destruction tears down clients, then the front end, then the
/// engine (closing its C2 link), then C2.
struct System {
  std::unique_ptr<Tracer> tracer;  // null in untraced runs
  std::unique_ptr<sknn::C2Service> c2;
  std::unique_ptr<sknn::RpcServer> c2_server;
  std::unique_ptr<sknn::SknnEngine> engine;
  std::unique_ptr<sknn::QueryService> service;
  std::vector<std::unique_ptr<sknn::RemoteQueryClient>> clients;

  ~System();
};

/// \brief Alice's setup: the seed-derived key pair and Epk(T).
struct Outsourced {
  sknn::PaillierKeyPair keys;
  sknn::EncryptedDatabase db;
  std::shared_ptr<const sknn::ClusterManifest> clusters;  // served only
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

sknn::Result<Outsourced> Outsource(const WorkloadSpec& spec,
                                   const Inputs& inputs, uint64_t seed);

/// \brief Builds the topology, the same one whether or not the run traces
/// (`traced` only adds the recorder, switched off until the caller enables
/// it). The exact workloads run in one process: a C2Service the benchmark
/// owns behind an RpcServer over Channel::CreatePair, joined with
/// SknnEngine::CreateWithRemoteC2, so the benchmark can wrap both ends of
/// the link. The served workload runs C2 behind an RpcServer over loopback
/// TCP, a sharded clustered front-end engine from
/// QueryService::CreateShardedEngine, a QueryService with the result cache,
/// and spec.clients RemoteQueryClient connections.
sknn::Result<std::unique_ptr<System>> StandUp(const WorkloadSpec& spec,
                                              Outsourced outsourced,
                                              bool traced);

/// \brief The request a workload sends for `record`.
sknn::QueryRequest MakeRequest(const WorkloadSpec& spec,
                               const sknn::PlainRecord& record);

/// \brief Sends one request as client `client` and waits for the reply.
sknn::Result<sknn::QueryResponse> Send(System& system, std::size_t client,
                                       const sknn::QueryRequest& request);

}  // namespace qbench

#endif  // QBENCH_SYSTEM_H_
