// Unit-cost probes for the traced run: each times one public function of
// the bigint or crypto layer at the workload's key size, single-threaded,
// from outside the library.
#ifndef QBENCH_PROBES_H_
#define QBENCH_PROBES_H_

#include "crypto/paillier.h"

namespace qbench {

/// \brief Microseconds per call.
struct UnitCosts {
  double powmod_full_us = 0;  // BigInt::PowMod, c^(N-1) mod N^2 (Negate)
  double invmod_us = 0;       // BigInt::InvMod mod N^2
  double mulmod_us = 0;       // BigInt::MulMod mod N^2 (homomorphic add)
  double fixed_base_us = 0;   // FixedBaseWindow::PowMod, refill exponent
  double encrypt_pooled_us = 0;    // EncryptMany with a filled pool
  double encrypt_unpooled_us = 0;  // EncryptMany without a pool
  double decrypt_crt_us = 0;       // DecryptMany (CRT)
};

UnitCosts ProbeUnitCosts(const sknn::PaillierPublicKey& pk,
                         const sknn::PaillierSecretKey& sk, uint64_t seed);

}  // namespace qbench

#endif  // QBENCH_PROBES_H_
