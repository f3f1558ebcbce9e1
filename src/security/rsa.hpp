// RSA keypairs, PKCS#1-v1.5-style SHA-256 signatures, and raw encryption
// (used for the TLS-lite key exchange).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "security/bignum.hpp"
#include "security/sha256.hpp"

namespace gs::security {

struct RsaPublicKey {
  BigUint n;  // modulus
  BigUint e;  // public exponent

  size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigUint d;  // private exponent
  // The private exponent in Chinese-remainder form (PKCS#1): n = p * q,
  // dp = d mod (p-1), dq = d mod (q-1), qinv = q^-1 mod p. Signing and
  // decryption use only these.
  BigUint p;
  BigUint q;
  BigUint dp;
  BigUint dq;
  BigUint qinv;

  /// Generates a keypair with a `bits`-bit modulus. `rng` is the entropy
  /// source; pass a fixed-seed generator for reproducible test fixtures.
  static RsaKeyPair generate(size_t bits, std::mt19937_64& rng);
};

/// Signs a SHA-256 digest: EMSA-PKCS1-v1_5-shaped padding, then the
/// private operation. Throws std::runtime_error if the result fails the
/// public-exponent check (a faulty CRT half would otherwise leak p and q).
std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key, const Digest256& digest);

/// Verifies a signature over a SHA-256 digest.
bool rsa_verify(const RsaPublicKey& key, const Digest256& digest,
                std::span<const std::uint8_t> signature);

/// Raw RSA encryption of a short secret (must be shorter than the modulus).
/// Used for the TLS-lite pre-master-secret exchange.
std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext);
std::vector<std::uint8_t> rsa_decrypt(const RsaKeyPair& key,
                                      std::span<const std::uint8_t> ciphertext);

}  // namespace gs::security
