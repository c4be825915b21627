#ifndef PDS2_CRYPTO_SHA256_INTERNAL_H_
#define PDS2_CRYPTO_SHA256_INTERNAL_H_

// The two SHA-256 compression functions behind Sha256, exposed so tests
// can compare them on any host. Not part of the public crypto API.

#include <cstddef>
#include <cstdint>

namespace pds2::crypto::internal {

/// Compresses `n` consecutive 64-byte blocks into `state` with the portable
/// FIPS 180-4 rounds: the reference, and the only path on CPUs without SHA
/// extensions.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t n);

/// The same with the x86-64 SHA extensions. Returns false, leaving `state`
/// untouched, where the CPU or the compiler lacks them.
bool Sha256CompressHardware(uint32_t state[8], const uint8_t* blocks,
                            size_t n);

}  // namespace pds2::crypto::internal

#endif  // PDS2_CRYPTO_SHA256_INTERNAL_H_
