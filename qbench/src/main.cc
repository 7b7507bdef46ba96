// qbench — the query-path benchmark of the secure k-NN system.
//
//   qbench --workload <basic_exact|secure_exact|served_zipf> --seed <n>
//          --seconds <s> --trace <0|1> [--n N] [--key-bits K]
//
// Generates the workload's inputs from --seed, stands the system up from
// them (timed: setup_s), sends one warm-up query, then drives closed-loop
// clients for --seconds through the public API and checks every answer
// against a brute-force plaintext k-NN computed here. The last stdout line
// is one JSON object: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1 (see qbench/README.md for both tables).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/mutex.h"
#include "core/query_client.h"
#include "net/query_wire.h"
#include "probes.h"
#include "system.h"
#include "trace.h"

namespace qbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Size overrides for the README's one-off paper-scale reference runs;
  // BENCHMARK.json's command never passes them.
  std::size_t n = 0;
  unsigned key_bits = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(number >= 0)) return false;
    if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--trace") {
      args->trace = number != 0;
    } else if (flag == "--n") {
      args->n = static_cast<std::size_t>(number);
    } else if (flag == "--key-bits") {
      args->key_bits = static_cast<unsigned>(number);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Zipf(s) frequencies over ranks [0, n), laid out deterministically by
// largest deficit: request j goes to the rank furthest behind its share
// p_r * j. Every run sees the same repeat structure; a random draw would
// add sampling noise to the hit share.
std::vector<std::size_t> ZipfSchedule(std::size_t n, double s,
                                      std::size_t length) {
  std::vector<double> p;
  double total = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    p.push_back(1.0 / std::pow(static_cast<double>(i), s));
    total += p.back();
  }
  for (double& x : p) x /= total;
  std::vector<double> count(n, 0);
  std::vector<std::size_t> order;
  order.reserve(length);
  for (std::size_t j = 1; j <= length; ++j) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < n; ++r) {
      if (p[r] * j - count[r] > p[best] * j - count[best]) best = r;
    }
    count[best] += 1;
    order.push_back(best);
  }
  return order;
}

// The served workload's request stream alternates a query never sent
// before with a repeat of one of the first `hot` queries, picked by the
// Zipf schedule. Every other request is then a miss from the start, so the
// hit share stays near one half however many requests a run completes.
// Over a fixed query set the hit share would grow with the number of
// requests, and a slower machine would also show a lower hit share.
std::vector<std::size_t> ServedOrder(std::size_t distinct, std::size_t hot,
                                     double s, std::size_t length) {
  const std::vector<std::size_t> repeats = ZipfSchedule(hot, s, length / 2);
  std::vector<std::size_t> order;
  order.reserve(length);
  for (std::size_t j = 0; j + 1 < length; j += 2) {
    const std::size_t fresh = j / 2;
    order.push_back(fresh % distinct);
    order.push_back(std::min(repeats[j / 2], fresh) % distinct);
  }
  return order;
}

struct Phase {
  double start = 0;
  double end = 0;
  std::vector<Sample> samples;
  uint64_t failed = 0;
};

// Closed loop: every client sends its next request when the previous reply
// arrives, until `seconds` have passed; a request in flight at the deadline
// completes and counts.
Phase RunPhase(System& sys, const WorkloadSpec& spec, const Inputs& inputs,
               const std::vector<std::size_t>& order, double seconds,
               std::atomic<std::size_t>* next_request) {
  Phase phase;
  sknn::Mutex mutex;
  phase.start = Now();
  const double deadline = phase.start + seconds;
  auto drive = [&](std::size_t client) {
    std::vector<Sample> mine;
    uint64_t failed = 0;
    while (Now() < deadline) {
      Sample s;
      s.query = order[next_request->fetch_add(1) % order.size()];
      const sknn::QueryRequest request =
          MakeRequest(spec, inputs.queries[s.query]);
      s.start = Now();
      sknn::Result<sknn::QueryResponse> response = Send(sys, client, request);
      s.end = Now();
      if (!response.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     response.status().ToString().c_str());
        ++failed;
        continue;
      }
      s.response = std::move(response).value();
      mine.push_back(std::move(s));
    }
    sknn::MutexLock lock(&mutex);
    phase.failed += failed;
    for (auto& s : mine) {
      phase.end = std::max(phase.end, s.end);
      phase.samples.push_back(std::move(s));
    }
  };
  if (spec.clients <= 1) {
    drive(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < spec.clients; ++c) {
      threads.emplace_back(drive, c);
    }
    for (auto& t : threads) t.join();
  }
  phase.end = std::max(phase.end, phase.start);
  return phase;
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

bool IsMiss(const Sample& s) { return !s.response.cache_hit; }

std::vector<double> MissLatencies(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const auto& s : samples) {
    if (IsMiss(s)) v.push_back(s.latency());
  }
  return v;
}

// ---- correctness ----

struct Checker {
  bool ok = true;
  int reported = 0;
  void Fail(const std::string& what) {
    ok = false;
    if (reported++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

constexpr double kRecallFloor = 0.85;

// Answers against the oracle; cache hits against the secret key and the
// previous serve of the same request; SkNN_m's data-obliviousness. Returns
// recall@k averaged over the distinct queries answered.
double CheckAnswers(const WorkloadSpec& spec, const Inputs& inputs,
                    const sknn::PaillierSecretKey& sk,
                    std::vector<Sample> samples, Checker* check) {
  const std::set<sknn::PlainRecord> rows(inputs.table.begin(),
                                        inputs.table.end());
  std::map<std::size_t, double> recalls;  // per distinct query
  for (const Sample& s : samples) {
    double recall = 0;
    std::string err =
        CheckAnswer(inputs.table, rows, inputs.queries[s.query], spec.k,
                    s.response.records, !spec.served, &recall);
    if (!err.empty()) check->Fail("query " + std::to_string(s.query) + ": " + err);
    recalls[s.query] = recall;
  }
  std::vector<double> per_query;
  for (const auto& [query, r] : recalls) per_query.push_back(r);
  const double recall = per_query.empty() ? 1.0 : Mean(per_query);
  if (spec.served && recall < kRecallFloor) {
    check->Fail("mean recall@k " + std::to_string(recall) + " below floor " +
                std::to_string(kRecallFloor));
  }

  if (spec.served) {
    // Serve order per request: every hit decrypts to its records and
    // differs, ciphertext by ciphertext, from the previous serve.
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.end < b.end; });
    std::map<std::size_t, const Sample*> previous;
    const std::size_t m = spec.m;
    for (const Sample& s : samples) {
      const auto& enc = s.response.encrypted_records;
      if (s.response.cache_hit) {
        if (enc.size() != s.response.records.size() * m) {
          check->Fail("cache hit without k*m encrypted records");
          continue;
        }
        for (std::size_t i = 0; i < enc.size(); ++i) {
          const sknn::BigInt v =
              sk.Decrypt(sknn::Ciphertext(sknn::BigInt::FromBytes(enc[i])));
          auto as_int = v.ToInt64();
          if (!as_int.ok() || *as_int != s.response.records[i / m][i % m]) {
            check->Fail("cache hit ciphertext decrypts to another record");
            break;
          }
        }
        auto prev = previous.find(s.query);
        if (prev != previous.end()) {
          const auto& before = prev->second->response.encrypted_records;
          for (std::size_t i = 0; i < enc.size() && i < before.size(); ++i) {
            if (enc[i] == before[i]) {
              check->Fail("cache hit repeats a ciphertext of the previous "
                          "serve (not rerandomized)");
              break;
            }
          }
        }
      }
      if (!enc.empty()) previous[s.query] = &s;
    }
  }

  if (spec.protocol == sknn::QueryProtocol::kSecure && !samples.empty()) {
    const auto& first = samples.front().response;
    for (const Sample& s : samples) {
      const auto& r = s.response;
      if (r.ops.encryptions != first.ops.encryptions ||
          r.ops.decryptions != first.ops.decryptions ||
          r.ops.exponentiations != first.ops.exponentiations ||
          r.ops.multiplications != first.ops.multiplications ||
          r.traffic.total_frames() != first.traffic.total_frames()) {
        check->Fail("SkNN_m op or frame counts differ between queries "
                    "(not data-oblivious)");
        break;
      }
    }
  }
  return recall;
}

// The traced run's independent totals and per-exchange bounds.
void CheckTrace(const std::vector<Sample>& traced, const Tracer& tracer,
                bool single_client, Checker* check) {
  const std::vector<Exchange> exchanges = tracer.exchanges();
  std::map<uint64_t, Exchange> by_correlation;
  struct Group {
    double first = 1e300, last = 0;
    sknn::TrafficStats traffic;
  };
  std::map<uint64_t, Group> groups;
  sknn::TrafficStats counted;
  for (const Exchange& e : exchanges) {
    by_correlation[e.correlation_id] = e;
    if (e.query_id == 0) continue;  // untagged control exchanges
    Group& g = groups[e.query_id];
    g.first = std::min(g.first, e.send);
    g.last = std::max(g.last, e.recv);
    const sknn::TrafficStats one{1, e.request_bytes, 1, e.reply_bytes};
    g.traffic = g.traffic + one;
    counted = counted + one;
  }
  sknn::TrafficStats reported;
  std::vector<const Sample*> misses;
  for (const Sample& s : traced) {
    if (!IsMiss(s)) continue;
    reported = reported + s.response.traffic;
    misses.push_back(&s);
  }
  if (counted.frames_a_to_b != reported.frames_a_to_b ||
      counted.frames_b_to_a != reported.frames_b_to_a ||
      counted.bytes_a_to_b != reported.bytes_a_to_b ||
      counted.bytes_b_to_a != reported.bytes_b_to_a) {
    check->Fail("decorator traffic " + counted.ToString() +
                " != QueryResponse::traffic " + reported.ToString());
  }
  if (groups.size() != misses.size()) {
    check->Fail("decorator saw " + std::to_string(groups.size()) +
                " tagged queries, clients completed " +
                std::to_string(misses.size()));
  }
  // Each query's round trips lie inside one client-observed interval (and,
  // with one client, carry exactly that request's traffic).
  for (const auto& [query_id, g] : groups) {
    const Sample* home = nullptr;
    for (const Sample* s : misses) {
      if (s->start <= g.first && g.last <= s->end) {
        home = s;
        break;
      }
    }
    if (home == nullptr) {
      check->Fail("query " + std::to_string(query_id) +
                  "'s round trips lie outside every client interval");
      continue;
    }
    const sknn::TrafficStats& t = home->response.traffic;
    if (single_client && (t.total_frames() != g.traffic.total_frames() ||
                          t.total_bytes() != g.traffic.total_bytes())) {
      check->Fail("query " + std::to_string(query_id) + ": decorator " +
                  g.traffic.ToString() + " != response " + t.ToString());
    }
  }
  // C2's handling of an exchange lies within C1's round trip for it.
  for (const C2Handle& h : tracer.handles()) {
    auto it = by_correlation.find(h.correlation_id);
    if (it == by_correlation.end()) {
      check->Fail("C2 handled a frame C1's decorator never saw return");
      continue;
    }
    if (h.start < it->second.send || h.end > it->second.recv ||
        h.end - h.start > it->second.recv - it->second.send) {
      check->Fail("C2 handle time exceeds C1's round trip for " +
                  OpcodeName(h.opcode));
    }
  }
}

// ---- metrics ----

double PerQuery(double total, std::size_t queries) {
  return queries == 0 ? 0 : total / static_cast<double>(queries);
}

// Bob's end, timed directly: EncryptQuery, then RecoverRecords over k*m
// masked copies of the query, which must come back as the query itself.
double BobMillis(const sknn::PaillierPublicKey& pk_in,
                 const sknn::PlainRecord& query, unsigned k, Checker* check) {
  sknn::PaillierPublicKey pk = pk_in;
  pk.set_randomizer_pool(nullptr);  // Bob pays unpooled encryption
  sknn::QueryClient bob(pk);
  const std::size_t m = query.size();
  sknn::Random rng(17);
  std::vector<sknn::BigInt> masks, masked;
  for (std::size_t i = 0; i < k * m; ++i) {
    masks.push_back(rng.Below(pk.n()));
    masked.push_back(masks.back().AddMod(sknn::BigInt(query[i % m]), pk.n()));
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 32; ++rep) {
    const double t0 = Now();
    auto enc = bob.EncryptQuery(query);
    auto records = bob.RecoverRecords(masked, masks, k, m);
    ms.push_back((Now() - t0) * 1e3);
    if (!records.ok() || enc.size() != m ||
        *records != sknn::PlainTable(k, query)) {
      check->Fail("QueryClient::RecoverRecords did not unmask the records");
      break;
    }
  }
  return Median(ms);
}

// EncodeQueryResponse + DecodeQueryResponse of one real response.
double CodecMicros(const sknn::QueryResponse& response, Checker* check) {
  std::vector<double> us;
  for (int rep = 0; rep < 200; ++rep) {
    const double t0 = Now();
    sknn::Message msg = sknn::EncodeQueryResponse(response);
    auto decoded = sknn::DecodeQueryResponse(msg);
    us.push_back((Now() - t0) * 1e6);
    if (!decoded.ok() || decoded->records != response.records) {
      check->Fail("query response frame does not round-trip");
      break;
    }
  }
  return Median(us);
}

sknn::SknnEngine::RandomizerPoolStats operator-(
    const sknn::SknnEngine::RandomizerPoolStats& a,
    const sknn::SknnEngine::RandomizerPoolStats& b) {
  sknn::SknnEngine::RandomizerPoolStats d;
  d.c1_hits = a.c1_hits - b.c1_hits;
  d.c1_misses = a.c1_misses - b.c1_misses;
  d.c2_hits = a.c2_hits - b.c2_hits;
  d.c2_misses = a.c2_misses - b.c2_misses;
  return d;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: qbench --workload <basic_exact|secure_exact|"
                 "served_zipf> --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (args.n > 0) spec.n = args.n;
  if (args.key_bits > 0) spec.key_bits = args.key_bits;

  const Inputs inputs = MakeInputs(spec, args.seed);
  auto outsourced = Outsource(spec, inputs, args.seed);
  const double outsourced_s = SinceProcessStart();
  if (!outsourced.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 outsourced.status().ToString().c_str());
    return 1;
  }
  const sknn::PaillierPublicKey pk = outsourced->keys.pk;
  const sknn::PaillierSecretKey sk = outsourced->keys.sk;
  // The traced run probes unit costs before any engine thread exists.
  const UnitCosts unit =
      args.trace ? ProbeUnitCosts(pk, sk, args.seed) : UnitCosts{};
  auto system = StandUp(spec, std::move(outsourced).value(), args.trace);
  if (!system.ok()) {
    std::fprintf(stderr, "stand-up failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  System& sys = **system;
  const double setup_s = SinceProcessStart();

  auto warm = Send(sys, 0, MakeRequest(spec, inputs.warmup));
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up query failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }

  // Exact workloads send each distinct query once, in order; the served
  // workload interleaves fresh queries with Zipf repeats. Both run on
  // across phases.
  std::vector<std::size_t> order;
  if (spec.served) {
    order = ServedOrder(inputs.queries.size(), spec.hot_queries, spec.zipf_s,
                        2 * inputs.queries.size());
  } else {
    for (std::size_t i = 0; i < inputs.queries.size(); ++i) order.push_back(i);
  }
  std::atomic<std::size_t> next_request{0};
  Checker check;
  if (!args.trace) {
    const CpuTicks before = ReadCpuTicks();
    Phase run =
        RunPhase(sys, spec, inputs, order, args.seconds, &next_request);
    const CpuTicks after = ReadCpuTicks();
    const double recall = CheckAnswers(spec, inputs, sk, run.samples, &check);
    std::vector<double> all;
    double bytes = 0;
    for (const auto& s : run.samples) {
      all.push_back(s.latency());
      if (IsMiss(s)) bytes += static_cast<double>(s.response.traffic.total_bytes());
    }
    const std::size_t done = run.samples.size();
    const std::size_t misses = MissLatencies(run.samples).size();
    std::fprintf(stderr,
                 "summary: %zu requests, %zu protocol runs, hit share %.3f, "
                 "recall@k %.3f; setup %.3f s (keys + Epk(T) %.3f s); "
                 "CPU steal %.3f\n",
                 done, misses, 1.0 - Share(misses, done), recall, setup_s,
                 outsourced_s,
                 Share(after.steal - before.steal, after.total - before.total));
    PrintResult(check.ok, done + run.failed, run.failed,
                {{"setup_s", setup_s, "s"},
                 {"query_p50_s", Median(MissLatencies(run.samples)), "s"},
                 {"query_p95_s", Quantile(all, 0.95), "s"},
                 {"qps", PerQuery(static_cast<double>(done), 1) /
                             std::max(1e-9, run.end - run.start),
                  "queries/s"},
                 {"c1c2_mib_per_query", PerQuery(bytes / (1 << 20), done),
                  "MiB"},
                 {"peak_rss_mib", PeakRssMib(), "MiB"}});
    return 0;
  }

  // ---- traced run: half the time untraced, half traced, same topology ----
  const auto pools_before = sys.engine->randomizer_pool_stats();
  Phase plain =
      RunPhase(sys, spec, inputs, order, args.seconds / 2, &next_request);
  sys.tracer->set_enabled(true);
  Phase traced =
      RunPhase(sys, spec, inputs, order, args.seconds / 2, &next_request);
  sys.tracer->set_enabled(false);
  const auto pools = sys.engine->randomizer_pool_stats() - pools_before;

  std::vector<Sample> samples = plain.samples;
  samples.insert(samples.end(), traced.samples.begin(), traced.samples.end());
  const double recall = CheckAnswers(spec, inputs, sk, samples, &check);
  CheckTrace(traced.samples, *sys.tracer, spec.clients <= 1, &check);

  sknn::ServiceStatsReply stats;
  if (sys.service != nullptr) {
    stats = sys.service->ServiceStatsSnapshot();
    uint64_t hits = 0, completed = 1;  // the warm-up query
    for (const Sample& s : samples) {
      hits += s.response.cache_hit ? 1 : 0;
      ++completed;
    }
    const sknn::TableStatsEntry& table = stats.tables.at(0);
    if (table.cache_hits != hits) {
      check.Fail("client-observed cache hits " + std::to_string(hits) +
                 " != ServiceStats cache_hits " +
                 std::to_string(table.cache_hits));
    }
    if (table.completed != completed) {
      check.Fail("client-completed queries " + std::to_string(completed) +
                 " != ServiceStats completed " +
                 std::to_string(table.completed));
    }
  }

  // Per-query means over every protocol run (both halves).
  std::vector<const Sample*> misses;
  std::vector<double> hit_ms, front_end_ms, cloud;
  for (const Sample& s : samples) {
    if (IsMiss(s)) {
      misses.push_back(&s);
      cloud.push_back(s.response.cloud_seconds);
      front_end_ms.push_back((s.latency() - s.response.cloud_seconds) * 1e3);
    } else {
      hit_ms.push_back(s.latency() * 1e3);
    }
  }
  const std::size_t nq = misses.size();
  double enc = 0, dec = 0, exp = 0, mul = 0, frames = 0, merge = 0;
  double candidates = 0, pruned = 0, stage = 0;
  sknn::SkNNmBreakdown bd;
  for (const Sample* s : misses) {
    const auto& r = s->response;
    enc += r.ops.encryptions;
    dec += r.ops.decryptions;
    exp += r.ops.exponentiations;
    mul += r.ops.multiplications;
    frames += r.traffic.total_frames();
    merge += r.merge_seconds;
    bd.ssed_seconds += r.breakdown.ssed_seconds;
    bd.sbd_seconds += r.breakdown.sbd_seconds;
    bd.sminn_seconds += r.breakdown.sminn_seconds;
    bd.extract_seconds += r.breakdown.extract_seconds;
    bd.update_seconds += r.breakdown.update_seconds;
    bd.finalize_seconds += r.breakdown.finalize_seconds;
    if (r.shards.empty()) {
      candidates += spec.n;
      continue;
    }
    double slowest = 0;
    for (const auto& shard : r.shards) {
      pruned += shard.pruned;
      if (shard.pruned) continue;
      candidates += shard.shard_records;
      slowest = std::max(slowest, shard.seconds);
    }
    stage += slowest;
  }

  // Span-derived numbers come from the traced half only.
  std::size_t traced_misses = 0;
  for (const Sample& s : traced.samples) traced_misses += IsMiss(s) ? 1 : 0;
  double blocked = 0, busy = 0;
  for (const Exchange& e : sys.tracer->exchanges()) {
    if (e.query_id != 0) blocked += e.recv - e.send;
  }
  std::map<uint16_t, std::pair<double, double>> per_op;  // calls, busy
  const std::vector<C2Handle> handles = sys.tracer->handles();
  for (const C2Handle& h : handles) {
    if (h.query_id == 0) continue;
    busy += h.end - h.start;
    per_op[h.opcode].first += 1;
    per_op[h.opcode].second += h.end - h.start;
  }

  // The cost model: per-op counts x unit costs, against cloud CPU.
  const double miss_share = Share(pools.c1_misses + pools.c2_misses,
                                  pools.c1_hits + pools.c1_misses +
                                      pools.c2_hits + pools.c2_misses);
  const double enc_us = unit.encrypt_pooled_us * (1 - miss_share) +
                        unit.encrypt_unpooled_us * miss_share;
  const double exp_s = PerQuery(exp, nq) * unit.powmod_full_us * 1e-6;
  const double dec_s = PerQuery(dec, nq) * unit.decrypt_crt_us * 1e-6;
  const double enc_s = PerQuery(enc, nq) * enc_us * 1e-6;
  const double miss_enc_s =
      PerQuery(enc, nq) * miss_share * unit.encrypt_unpooled_us * 1e-6;
  const double mul_s = PerQuery(mul, nq) * unit.mulmod_us * 1e-6;
  const double modeled = exp_s + dec_s + enc_s + mul_s;
  const double cpu = Median(cloud) * static_cast<double>(spec.threads);

  std::vector<Metric> metrics = {
      {"bigint.powmod_full_us", unit.powmod_full_us, "us"},
      {"bigint.invmod_us", unit.invmod_us, "us"},
      {"bigint.mulmod_us", unit.mulmod_us, "us"},
      {"bigint.fixed_base_us", unit.fixed_base_us, "us"},
      {"crypto.enc_per_query", PerQuery(enc, nq), "count"},
      {"crypto.dec_per_query", PerQuery(dec, nq), "count"},
      {"crypto.exp_per_query", PerQuery(exp, nq), "count"},
      {"crypto.mul_per_query", PerQuery(mul, nq), "count"},
      {"crypto.encrypt_pooled_us", unit.encrypt_pooled_us, "us"},
      {"crypto.encrypt_unpooled_us", unit.encrypt_unpooled_us, "us"},
      {"crypto.decrypt_crt_us", unit.decrypt_crt_us, "us"},
      {"crypto.c1_pool_miss_share",
       Share(pools.c1_misses, pools.c1_hits + pools.c1_misses), "ratio"},
      {"crypto.c2_pool_miss_share",
       Share(pools.c2_misses, pools.c2_hits + pools.c2_misses), "ratio"},
      {"crypto.modeled_cpu_s", modeled, "s"},
      {"crypto.explained_share", cpu > 0 ? modeled / cpu : 0, "ratio"},
      {"crypto.exp_cpu_share", cpu > 0 ? exp_s / cpu : 0, "ratio"},
      {"crypto.dec_cpu_share", cpu > 0 ? dec_s / cpu : 0, "ratio"},
      {"crypto.miss_enc_cpu_share", cpu > 0 ? miss_enc_s / cpu : 0, "ratio"},
      {"proto.ssed_s", PerQuery(bd.ssed_seconds, nq), "s"},
      {"proto.sbd_s", PerQuery(bd.sbd_seconds, nq), "s"},
      {"proto.sminn_s", PerQuery(bd.sminn_seconds, nq), "s"},
      {"proto.extract_s", PerQuery(bd.extract_seconds, nq), "s"},
      {"proto.update_s", PerQuery(bd.update_seconds, nq), "s"},
      {"proto.finalize_s", PerQuery(bd.finalize_seconds, nq), "s"},
      {"proto.sminn_share",
       bd.total() > 0 ? bd.sminn_seconds / bd.total() : 0, "ratio"},
      {"net.c1c2_frames_per_query", PerQuery(frames, nq), "count"},
      {"net.c1_blocked_s_per_query", PerQuery(blocked, traced_misses), "s"},
      {"net.c2_busy_s_per_query", PerQuery(busy, traced_misses), "s"},
  };
  for (uint16_t op : ReportedOpcodes()) {
    const auto& [calls, op_busy] = per_op[op];
    metrics.push_back({"net.c2." + OpcodeName(op) + ".calls",
                       PerQuery(calls, traced_misses), "count"});
    metrics.push_back({"net.c2." + OpcodeName(op) + ".busy_s",
                       PerQuery(op_busy, traced_misses), "s"});
  }
  const sknn::QueryResponse& sample_response =
      misses.empty() ? warm.value() : misses.back()->response;
  const double overhead =
      Median(MissLatencies(traced.samples)) - Median(MissLatencies(plain.samples));
  std::vector<Metric> tail = {
      {"net.query_frame_codec_us", CodecMicros(sample_response, &check), "us"},
      {"core.cloud_s", Median(cloud), "s"},
      {"core.bob_ms", BobMillis(pk, inputs.warmup, spec.k, &check), "ms"},
      {"core.candidates_per_query", PerQuery(candidates, nq), "count"},
      {"core.shards_pruned_per_query", PerQuery(pruned, nq), "count"},
      {"core.shard_stage_s", PerQuery(stage, nq), "s"},
      {"core.merge_s", PerQuery(merge, nq), "s"},
      {"core.recall_at_k", recall, "ratio"},
      {"serve.cache_hit_share",
       Share(samples.size() - nq, samples.size()), "ratio"},
      {"serve.cache_evictions",
       stats.tables.empty() ? 0.0
                            : static_cast<double>(stats.tables[0].cache_evictions),
       "count"},
      {"serve.hit_latency_ms", Median(hit_ms), "ms"},
      {"serve.front_end_ms", Median(front_end_ms), "ms"},
      {"serve.admission_rejects",
       stats.tables.empty() ? 0.0
                            : static_cast<double>(stats.tables[0].rejected),
       "count"},
      {"trace.overhead_s", overhead, "s"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  // Spans go out when the run ends.
  std::vector<ClientSpan> roots;
  for (const Sample& s : traced.samples) {
    roots.push_back({s.start, s.end, s.response.cache_hit});
  }
  const std::string trace_dir = ".bench_out";
  std::error_code mkdir_error;
  std::filesystem::create_directories(trace_dir, mkdir_error);
  if (!mkdir_error) {
    const std::string path = trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!sys.tracer->WriteJsonLines(path, roots)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }
  const uint64_t failed = plain.failed + traced.failed;
  PrintResult(check.ok, samples.size() + failed, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) { return qbench::Main(argc, argv); }
