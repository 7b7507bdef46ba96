#include "system.h"

#include <algorithm>
#include <random>
#include <thread>

#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "net/socket.h"

namespace qbench {
namespace {

// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kKeySeed = 0x5EC0DE;
constexpr std::size_t kExactDistinctQueries = 64;
constexpr int64_t kSpread = 3;  // served table: max offset from a centroid
constexpr std::size_t kPoolCapacity = 4096;  // SknnEngine / sknn_c2_server

// A C2Service configured like the engine's in-process one (exact
// workloads) or like `sknn_c2_server --workers <threads>` (served).
std::unique_ptr<sknn::C2Service> MakeC2(const WorkloadSpec& spec,
                                        sknn::PaillierSecretKey sk) {
  auto c2 = std::make_unique<sknn::C2Service>(std::move(sk));
  if (spec.threads > 1) c2->EnableIntraMessageParallelism(spec.threads);
  sknn::RandomizerPoolOptions pool;
  if (spec.served) pool.workers = std::max<std::size_t>(1, spec.threads / 2);
  c2->EnableRandomizerPool(kPoolCapacity, pool);
  return c2;
}

}  // namespace

System::~System() {
  for (auto& client : clients) client->Close();
  clients.clear();
  if (service != nullptr) service->Shutdown();
  service.reset();
  engine.reset();
  if (c2_server != nullptr) c2_server->Shutdown();
  c2_server.reset();
  c2.reset();
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  const int64_t max_value = sknn::MaxValueForDistanceBits(spec.m, spec.l);
  if (spec.served) {
    sknn::ClusterSpec clusters;
    clusters.num_clusters = spec.clusters;
    clusters.spread = kSpread;
    in.table = sknn::GenerateClusteredTable(spec.n, spec.m, max_value,
                                            clusters, Mix(seed, 0));
  } else {
    in.table = sknn::GenerateUniformTable(spec.n, spec.m, max_value,
                                          Mix(seed, 0));
  }
  if (!spec.served) {
    // One generator for all of them: seeding a GMP Mersenne twister costs
    // about half a millisecond, and setup_s starts before the inputs exist.
    in.queries = sknn::GenerateUniformTable(kExactDistinctQueries, spec.m,
                                            max_value, Mix(seed, 100));
  }
  std::mt19937_64 rng(Mix(seed, 100));
  for (std::size_t i = 0; spec.served && i < spec.distinct_queries; ++i) {
    // Served queries come from the table's own distribution: a random row
    // jittered like the generator jitters rows around their centroids.
    sknn::PlainRecord q = in.table[rng() % in.table.size()];
    for (int64_t& v : q) {
      const int64_t jitter =
          static_cast<int64_t>(rng() % (2 * kSpread + 1)) - kSpread;
      v = std::clamp<int64_t>(v + jitter, 0, max_value);
    }
    in.queries.push_back(std::move(q));
  }
  in.warmup = sknn::GenerateUniformQuery(spec.m, max_value, Mix(seed, 1));
  return in;
}

sknn::Result<Outsourced> Outsource(const WorkloadSpec& spec,
                                   const Inputs& inputs, uint64_t seed) {
  Outsourced out;
  // One fixed key pair per key size, whatever the seed: the prime search
  // behind a key takes a different number of trials for every key, so a
  // key drawn per seed, or from OS entropy, would make setup_s wander with
  // the key rather than with the code. Key generation is still timed.
  sknn::Random key_rng(Mix(kKeySeed, spec.key_bits));
  SKNN_ASSIGN_OR_RETURN(out.keys,
                        sknn::GeneratePaillierKeyPair(spec.key_bits, key_rng));

  // Attribute-wise encryption of T, as DataOwner::EncryptDatabase does it,
  // fanned over the setup threads.
  const int64_t max_value = sknn::MaxValueForDistanceBits(spec.m, spec.l);
  const unsigned attr_bits = sknn::BitsForMaxValue(max_value);
  std::vector<sknn::BigInt> flat;
  flat.reserve(inputs.table.size() * spec.m);
  for (const auto& row : inputs.table) {
    for (int64_t v : row) flat.emplace_back(v);
  }
  sknn::ThreadPool pool(spec.threads);
  std::vector<sknn::Ciphertext> cts = out.keys.pk.EncryptMany(flat, &pool);
  out.db.records.resize(inputs.table.size());
  for (std::size_t i = 0; i < inputs.table.size(); ++i) {
    out.db.records[i].assign(cts.begin() + i * spec.m,
                             cts.begin() + (i + 1) * spec.m);
  }
  out.db.distance_bits =
      sknn::DataOwner::RequiredDistanceBits(spec.m, attr_bits);

  if (spec.served) {
    SKNN_ASSIGN_OR_RETURN(
        sknn::ClusterManifest manifest,
        sknn::BuildClusterManifest(inputs.table, spec.clusters, Mix(seed, 3),
                                   out.keys.pk));
    out.clusters =
        std::make_shared<const sknn::ClusterManifest>(std::move(manifest));
  }
  return out;
}

sknn::Result<std::unique_ptr<System>> StandUp(const WorkloadSpec& spec,
                                              Outsourced outsourced,
                                              bool traced) {
  auto sys = std::make_unique<System>();
  if (traced) sys->tracer = std::make_unique<Tracer>();
  Tracer* tracer = sys->tracer.get();
  sknn::SknnEngine::Options options;
  options.c1_threads = spec.threads;
  options.c2_threads = spec.threads;

  sys->c2 = MakeC2(spec, std::move(outsourced.keys.sk));
  std::unique_ptr<sknn::Endpoint> c1_end;
  if (!spec.served) {
    sknn::Channel::EndpointPair link = sknn::Channel::CreatePair();
    sys->c2_server = std::make_unique<sknn::RpcServer>(
        std::move(link.b), WrapC2Handler(sys->c2.get(), tracer),
        spec.threads);
    c1_end = std::move(link.a);
  } else {
    SKNN_ASSIGN_OR_RETURN(sknn::TcpListener listener,
                          sknn::TcpListener::Bind(0));
    sknn::Result<std::unique_ptr<sknn::SocketEndpoint>> accepted =
        sknn::Status::Internal("no connection accepted");
    std::thread accepter([&] { accepted = listener.Accept(); });
    auto link = sknn::ConnectTcp("127.0.0.1", listener.port());
    if (!link.ok()) listener.Close();
    accepter.join();
    SKNN_RETURN_NOT_OK(link.status());
    SKNN_RETURN_NOT_OK(accepted.status());
    sys->c2_server = std::make_unique<sknn::RpcServer>(
        std::move(accepted).value(), WrapC2Handler(sys->c2.get(), tracer),
        spec.threads);
    c1_end = std::move(link).value();
  }
  if (tracer != nullptr) {
    c1_end = std::make_unique<TracingEndpoint>(std::move(c1_end), tracer);
  }

  if (!spec.served) {
    SKNN_ASSIGN_OR_RETURN(
        sys->engine,
        sknn::SknnEngine::CreateWithRemoteC2(outsourced.keys.pk,
                                             std::move(outsourced.db),
                                             std::move(c1_end), options));
    return sys;
  }

  options.clusters = outsourced.clusters;
  SKNN_ASSIGN_OR_RETURN(
      sys->engine,
      sknn::QueryService::CreateShardedEngine(
          outsourced.keys.pk, std::move(outsourced.db), std::move(c1_end),
          options, spec.clusters, sknn::ShardScheme::kByCluster, {}));
  sknn::QueryService::Options service_options;
  service_options.cache_bytes = spec.cache_bytes;
  sys->service =
      std::make_unique<sknn::QueryService>(sys->engine.get(), service_options);
  SKNN_RETURN_NOT_OK(sys->service->Start(0));
  for (std::size_t c = 0; c < spec.clients; ++c) {
    SKNN_ASSIGN_OR_RETURN(
        auto client,
        sknn::RemoteQueryClient::Connect("127.0.0.1", sys->service->port()));
    sys->clients.push_back(std::move(client));
  }
  return sys;
}

sknn::QueryRequest MakeRequest(const WorkloadSpec& spec,
                               const sknn::PlainRecord& record) {
  sknn::QueryRequest request;
  request.record = record;
  request.k = spec.k;
  request.protocol = spec.protocol;
  if (spec.served) {
    request.index_mode = sknn::IndexMode::kClustered;
    request.probe_clusters = spec.probe;
  }
  return request;
}

sknn::Result<sknn::QueryResponse> Send(System& system, std::size_t client,
                                       const sknn::QueryRequest& request) {
  if (!system.clients.empty()) {
    return system.clients[client % system.clients.size()]->Query(request);
  }
  return system.engine->Query(request);
}

}  // namespace qbench
