#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace qbench {
namespace {

Clock::time_point g_process_start = Clock::now();

void PrintNumber(double v) {
  // All digits as measured: %.17g round-trips a double exactly.
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

}  // namespace

double SinceProcessStart() {
  return std::chrono::duration<double>(Clock::now() - g_process_start).count();
}

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "basic_exact") {
    w.protocol = sknn::QueryProtocol::kBasic;
    w.key_bits = 512;
    w.n = 1000;
  } else if (name == "secure_exact") {
    w.protocol = sknn::QueryProtocol::kSecure;
    w.key_bits = 512;
    w.n = 8;
  } else if (name == "served_zipf") {
    w.protocol = sknn::QueryProtocol::kBasic;
    w.served = true;
    w.key_bits = 512;
    w.n = 500;
    w.clusters = 16;
    w.probe = 2;
    w.clients = 4;
    w.distinct_queries = 4096;
    w.hot_queries = 64;
    w.zipf_s = 1.0;
    w.cache_bytes = std::size_t{8} << 20;  // sknn_c1_server's default
  } else {
    return false;
  }
  *spec = w;
  return true;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

int64_t SquaredDistance(const sknn::PlainRecord& a,
                        const sknn::PlainRecord& b) {
  int64_t d = 0;
  for (std::size_t j = 0; j < a.size() && j < b.size(); ++j) {
    d += (a[j] - b[j]) * (a[j] - b[j]);
  }
  return d;
}

std::vector<int64_t> TrueTopKDistances(const sknn::PlainTable& table,
                                       const sknn::PlainRecord& q,
                                       unsigned k) {
  std::vector<int64_t> d;
  d.reserve(table.size());
  for (const auto& row : table) d.push_back(SquaredDistance(row, q));
  const std::size_t kk = std::min<std::size_t>(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(kk),
                    d.end());
  d.resize(kk);
  return d;
}

std::string CheckAnswer(const sknn::PlainTable& table,
                        const std::set<sknn::PlainRecord>& rows,
                        const sknn::PlainRecord& q, unsigned k,
                        const sknn::PlainTable& records, bool exact,
                        double* recall) {
  const std::vector<int64_t> truth = TrueTopKDistances(table, q, k);
  if (records.size() != truth.size()) {
    return "returned " + std::to_string(records.size()) + " records, want " +
           std::to_string(truth.size());
  }
  std::vector<int64_t> got;
  for (const auto& r : records) {
    if (rows.count(r) == 0) return "a returned record is no table row";
    got.push_back(SquaredDistance(r, q));
  }
  std::sort(got.begin(), got.end());
  std::size_t within = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (exact && got[i] != truth[i]) {
      return "distance multiset differs at rank " + std::to_string(i) +
             ": got " + std::to_string(got[i]) + ", want " +
             std::to_string(truth[i]);
    }
    if (got[i] < truth[i]) {
      return "distance below the true rank-" + std::to_string(i) +
             " distance (impossible)";
    }
    if (got[i] <= truth.back()) ++within;
  }
  *recall = truth.empty() ? 1.0
                          : static_cast<double>(within) /
                                static_cast<double>(truth.size());
  return "";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                metrics[i].name.c_str());
    PrintNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace qbench
