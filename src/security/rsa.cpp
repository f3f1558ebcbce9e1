#include "security/rsa.hpp"

#include <stdexcept>

namespace gs::security {

RsaKeyPair RsaKeyPair::generate(size_t bits, std::mt19937_64& rng) {
  if (bits < 128) throw std::invalid_argument("RSA modulus too small");
  const BigUint e(65537);
  for (;;) {
    BigUint p = BigUint::random_prime(bits / 2, rng);
    BigUint q = BigUint::random_prime(bits - bits / 2, rng);
    if (p == q) continue;
    BigUint n = p * q;
    if (n.bit_length() != bits) continue;
    BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    if ((phi % e).is_zero()) continue;  // e must be coprime with phi
    BigUint d = BigUint::mod_inverse(e, phi);
    BigUint dp = d % (p - BigUint(1));
    BigUint dq = d % (q - BigUint(1));
    BigUint qinv = BigUint::mod_inverse(q, p);
    return RsaKeyPair{.pub = {std::move(n), e},
                      .d = std::move(d),
                      .p = std::move(p),
                      .q = std::move(q),
                      .dp = std::move(dp),
                      .dq = std::move(dq),
                      .qinv = std::move(qinv)};
  }
}

namespace {

// EMSA-PKCS1-v1_5 shape: 0x00 0x01 FF..FF 0x00 || digest, sized to the
// modulus. (We skip the DER DigestInfo prefix; the digest length pins the
// hash choice.)
BigUint pad_digest(const Digest256& digest, size_t modulus_bytes) {
  if (modulus_bytes < digest.size() + 11) {
    throw std::invalid_argument("RSA modulus too small for digest padding");
  }
  std::vector<std::uint8_t> em(modulus_bytes, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return BigUint::from_bytes(em);
}

std::vector<std::uint8_t> to_fixed_bytes(const BigUint& v, size_t size) {
  std::vector<std::uint8_t> bytes = v.to_bytes();
  if (bytes.size() > size) throw std::logic_error("RSA value exceeds modulus size");
  std::vector<std::uint8_t> out(size - bytes.size(), 0);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

// x^d mod n for x < n, by the Chinese remainder theorem: two half-size
// exponentiations recombined with Garner's formula. The result is checked
// against the public exponent before it leaves: a fault in one half would
// otherwise release a value whose gcd with n is a prime factor
// (Boneh-DeMillo-Lipton).
BigUint rsa_private(const RsaKeyPair& key, const BigUint& x) {
  BigUint mp = BigUint::mod_exp(x, key.dp, key.p);
  BigUint mq = BigUint::mod_exp(x, key.dq, key.q);
  // h = qinv * (mp - mq) mod p, with p added first to stay non-negative.
  BigUint h = key.qinv * (mp + key.p - mq % key.p) % key.p;
  BigUint y = mq + h * key.q;
  if (BigUint::mod_exp(y, key.pub.e, key.pub.n) != x) {
    throw std::runtime_error("RSA private operation failed its fault check");
  }
  return y;
}

}  // namespace

std::vector<std::uint8_t> rsa_sign(const RsaKeyPair& key, const Digest256& digest) {
  BigUint em = pad_digest(digest, key.pub.modulus_bytes());
  return to_fixed_bytes(rsa_private(key, em), key.pub.modulus_bytes());
}

bool rsa_verify(const RsaPublicKey& key, const Digest256& digest,
                std::span<const std::uint8_t> signature) {
  if (signature.size() != key.modulus_bytes()) return false;
  BigUint sig = BigUint::from_bytes(signature);
  if (sig >= key.n) return false;
  BigUint em = BigUint::mod_exp(sig, key.e, key.n);
  return em == pad_digest(digest, key.modulus_bytes());
}

std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext) {
  BigUint m = BigUint::from_bytes(plaintext);
  if (m >= key.n) throw std::invalid_argument("RSA plaintext too large");
  return to_fixed_bytes(BigUint::mod_exp(m, key.e, key.n), key.modulus_bytes());
}

std::vector<std::uint8_t> rsa_decrypt(const RsaKeyPair& key,
                                      std::span<const std::uint8_t> ciphertext) {
  BigUint c = BigUint::from_bytes(ciphertext);
  if (c >= key.pub.n) throw std::invalid_argument("RSA ciphertext too large");
  return rsa_private(key, c).to_bytes();
}

}  // namespace gs::security
