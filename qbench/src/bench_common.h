// Shared pieces of the query-path benchmark: the workload description, the
// per-request sample a run records, small statistics helpers, the
// independent plaintext k-NN oracle, and the result line.
#ifndef QBENCH_BENCH_COMMON_H_
#define QBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/query_api.h"
#include "core/types.h"

namespace qbench {

using Clock = std::chrono::steady_clock;

/// \brief Seconds since the process started (static initialization) — the
/// origin of setup_s.
double SinceProcessStart();
/// \brief Seconds on the benchmark's monotonic clock (shared by spans and
/// client intervals so the two can be compared).
double Now();

/// \brief Peak resident set of this process so far, in MiB.
double PeakRssMib();

/// \brief Cumulative (steal, total) jiffies of the machine's CPUs from
/// /proc/stat; zeros where it cannot be read. On a virtual machine, steal
/// is time the host gave the vCPUs to someone else — a run whose share of
/// it is high measured a slower machine, not a slower program.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// \brief Everything that defines one workload's inputs and topology.
struct WorkloadSpec {
  std::string name;
  sknn::QueryProtocol protocol = sknn::QueryProtocol::kBasic;
  bool served = false;  // true: C2 + QueryService over loopback TCP
  unsigned key_bits = 1024;
  std::size_t n = 0;
  std::size_t m = 6;
  unsigned l = 12;  // the data domain is [0, MaxValueForDistanceBits(m, l)]
  unsigned k = 5;
  std::size_t threads = 4;  // C1 pool, C2 pool, client ceiling
  // Served only.
  uint32_t clusters = 0;
  uint32_t probe = 0;
  std::size_t clients = 1;
  std::size_t distinct_queries = 0;  // fresh queries available
  std::size_t hot_queries = 0;       // the repeats' Zipf support
  double zipf_s = 0;
  std::size_t cache_bytes = 0;
};

/// \brief Returns false (and leaves `spec` alone) for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// \brief One request as the benchmark's client saw it.
struct Sample {
  double start = 0;  // Now() at send
  double end = 0;    // Now() at reply
  std::size_t query = 0;  // index into the run's query list
  sknn::QueryResponse response;
  double latency() const { return end - start; }
};

/// \brief The queries a run draws from, and the plaintext table.
struct Inputs {
  sknn::PlainTable table;
  std::vector<sknn::PlainRecord> queries;
  sknn::PlainRecord warmup;
};

// ---- statistics ----
double Median(std::vector<double> v);
/// \brief Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

// ---- the independent oracle ----
int64_t SquaredDistance(const sknn::PlainRecord& a, const sknn::PlainRecord& b);
/// \brief The k smallest squared distances from `q` to the rows of `table`,
/// ascending (brute force; ties need no breaking for this multiset).
std::vector<int64_t> TrueTopKDistances(const sknn::PlainTable& table,
                                       const sknn::PlainRecord& q, unsigned k);

/// \brief Checks one answer against the oracle. Exact answers must match the
/// multiset of the k smallest distances; clustered (approximate) answers
/// must satisfy d'_(i) >= d_(i) for every i. Every returned record must be
/// a row of the table. Sets `*recall` to the share of returned records
/// whose distance is at most the true k-th distance. Returns "" when the
/// answer holds, else a description of the first violation.
std::string CheckAnswer(const sknn::PlainTable& table,
                        const std::set<sknn::PlainRecord>& rows,
                        const sknn::PlainRecord& q, unsigned k,
                        const sknn::PlainTable& records, bool exact,
                        double* recall);

// ---- the result line ----
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Prints the final JSON object (the benchmark's last stdout line).
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace qbench

#endif  // QBENCH_BENCH_COMMON_H_
