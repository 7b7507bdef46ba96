#include "probes.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "bigint/modexp.h"

namespace qbench {
namespace {

constexpr int kReps = 48;

// Fastest of `reps` timed calls of `fn(i)`, in microseconds: the
// uncontended cost, which is what the cost model multiplies out. (On a
// shared host a median drifts with whatever else runs on the core.)
double MinMicros(int reps, const std::function<void(int)>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn(i);
    us.push_back((Now() - t0) * 1e6);
  }
  return *std::min_element(us.begin(), us.end());
}

// Fastest of three batches, per element, of `batch()`, which processes
// kReps elements.
double BatchMicros(const std::function<void()>& batch) {
  std::vector<double> us;
  for (int r = 0; r < 3; ++r) {
    const double t0 = Now();
    batch();
    us.push_back((Now() - t0) * 1e6 / kReps);
  }
  return *std::min_element(us.begin(), us.end());
}

}  // namespace

UnitCosts ProbeUnitCosts(const sknn::PaillierPublicKey& pk_in,
                         const sknn::PaillierSecretKey& sk, uint64_t seed) {
  using sknn::BigInt;
  using sknn::Ciphertext;
  sknn::PaillierPublicKey pk = pk_in;
  pk.set_randomizer_pool(nullptr);
  sknn::Random rng(seed);
  const BigInt& n = pk.n();
  const BigInt& n2 = pk.n_squared();

  std::vector<BigInt> plain;
  std::vector<Ciphertext> cts;
  for (int i = 0; i < kReps; ++i) {
    plain.push_back(rng.Below(BigInt::PowerOfTwo(20)));
    cts.push_back(pk.Encrypt(plain.back(), rng));
  }
  const BigInt n_minus_1 = n - BigInt(1);

  UnitCosts u;
  BigInt sink;
  // Warm-up: a core that has been idle or busy elsewhere runs the first
  // few hundred milliseconds of modexps measurably slower.
  for (const double until = Now() + 0.3; Now() < until;) {
    sink = cts[0].value().PowMod(n_minus_1, n2);
  }
  u.powmod_full_us = MinMicros(kReps, [&](int i) {
    sink = cts[i].value().PowMod(n_minus_1, n2);
  });
  u.invmod_us = MinMicros(kReps, [&](int i) {
    auto inv = cts[i].value().InvMod(n2);
    if (inv.ok()) sink = std::move(inv).value();
  });
  u.mulmod_us = MinMicros(kReps, [&](int i) {
    sink = cts[i].value().MulMod(cts[(i + 1) % kReps].value(), n2);
  });

  // The refill primitive: h_N^s through the fixed-base table, with the
  // short exponent length RandomizerPoolOptions picks by default.
  const unsigned bits = static_cast<unsigned>(n.BitLength());
  const unsigned short_bits = std::min(bits, std::max(256u, bits / 4));
  const BigInt h_n = rng.UnitModulo(n).PowMod(n, n2);
  sknn::FixedBaseWindow window(h_n, n2, short_bits);
  std::vector<BigInt> exps;
  for (int i = 0; i < kReps; ++i) exps.push_back(rng.Bits(short_bits));
  u.fixed_base_us =
      MinMicros(kReps, [&](int i) { sink = window.PowMod(exps[i]); });

  u.encrypt_unpooled_us = BatchMicros([&] { (void)pk.EncryptMany(plain); });
  {
    sknn::RandomizerPool pool(n, kReps, sknn::RandomizerPoolOptions{});
    sknn::PaillierPublicKey pooled = pk;
    pooled.set_randomizer_pool(&pool);
    std::vector<double> us;
    for (int r = 0; r < 3; ++r) {
      pool.WaitUntilFull();
      const double t0 = Now();
      (void)pooled.EncryptMany(plain);
      us.push_back((Now() - t0) * 1e6 / kReps);
    }
    u.encrypt_pooled_us = *std::min_element(us.begin(), us.end());
  }
  u.decrypt_crt_us = BatchMicros([&] { (void)sk.DecryptMany(cts); });
  return u;
}

}  // namespace qbench
