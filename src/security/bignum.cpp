#include "security/bignum.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace gs::security {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr size_t kLimbBits = 64;
// Exponents longer than kMinWindowedExpBits use a fixed 4-bit window. Its
// 14-product table pays for itself only past about 60 bits, so e = 65537
// takes the binary ladder.
constexpr size_t kWindowBits = 4;
constexpr size_t kMinWindowedExpBits = 64;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("invalid hex digit");
}

}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes(std::span<const std::uint8_t> bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    u64 b = bytes[bytes.size() - 1 - i];  // i-th byte from the least significant end
    out.limbs_[i / 8] |= b << (8 * (i % 8));
  }
  out.trim();
  return out;
}

std::vector<std::uint8_t> BigUint::to_bytes() const {
  if (is_zero()) return {0};
  size_t n = (bit_length() + 7) / 8;
  std::vector<std::uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[n - 1 - i] = static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

BigUint BigUint::from_hex(std::string_view hex) {
  BigUint out;
  out.limbs_.assign((hex.size() + 15) / 16, 0);
  for (size_t i = 0; i < hex.size(); ++i) {
    u64 v = static_cast<u64>(hex_digit(hex[hex.size() - 1 - i]));
    out.limbs_[i / 16] |= v << (4 * (i % 16));
  }
  out.trim();
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  size_t n = (bit_length() + 3) / 4;
  std::string out(n, '0');
  for (size_t i = 0; i < n; ++i) {
    out[n - 1 - i] = kHex[(limbs_[i / 16] >> (4 * (i % 16))) & 0xF];
  }
  return out;
}

size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<size_t>(std::bit_width(limbs_.back()));
}

bool BigUint::bit(size_t i) const noexcept {
  size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

int BigUint::compare(const BigUint& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint operator+(const BigUint& a, const BigUint& b) {
  BigUint out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  u64 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) out.limbs_.push_back(carry);
  return out;
}

BigUint operator-(const BigUint& a, const BigUint& b) {
  if (a < b) throw std::underflow_error("BigUint subtraction underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size());
  u64 borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 sub = i < b.limbs_.size() ? b.limbs_[i] : 0;
    u64 diff = a.limbs_[i] - sub;
    u64 next = a.limbs_[i] < sub;
    next |= diff < borrow;  // diff >= 1 whenever the first subtraction wrapped
    out.limbs_[i] = diff - borrow;
    borrow = next;
  }
  out.trim();
  return out;
}

BigUint operator*(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] +
                 out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigUint BigUint::operator<<(size_t bits) const {
  if (is_zero()) return BigUint();
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift) out.limbs_[i + limb_shift + 1] = limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(size_t bits) const {
  size_t limb_shift = bits / kLimbBits;
  size_t bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& a, const BigUint& b) {
  if (b.is_zero()) throw std::domain_error("BigUint division by zero");
  if (a < b) return {BigUint(), a};

  const size_t n = b.limbs_.size();
  const size_t m = a.limbs_.size() - n;
  BigUint quotient;
  quotient.limbs_.assign(m + 1, 0);

  if (n == 1) {
    // Short division: one 128-by-64-bit step per limb.
    const u64 divisor = b.limbs_[0];
    u64 rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | a.limbs_[i];
      quotient.limbs_[i] = static_cast<u64>(cur / divisor);
      rem = static_cast<u64>(cur % divisor);
    }
    quotient.trim();
    return {std::move(quotient), BigUint(rem)};
  }

  // Knuth, TAOCP vol. 2, 4.3.1, Algorithm D.
  // D1: normalize so the divisor's top limb has its high bit set; the
  // dividend gains one limb to hold what shifts out.
  const int s = std::countl_zero(b.limbs_.back());
  auto shl = [s](u64 hi, u64 lo) { return s ? (hi << s) | (lo >> (64 - s)) : hi; };
  std::vector<u64> v(n);
  std::vector<u64> u(m + n + 1);
  for (size_t i = n - 1; i > 0; --i) v[i] = shl(b.limbs_[i], b.limbs_[i - 1]);
  v[0] = b.limbs_[0] << s;
  u[m + n] = s ? a.limbs_[m + n - 1] >> (64 - s) : 0;
  for (size_t i = m + n - 1; i > 0; --i) u[i] = shl(a.limbs_[i], a.limbs_[i - 1]);
  u[0] = a.limbs_[0] << s;

  const u64 v_top = v[n - 1];
  const u64 v_next = v[n - 2];
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two remainder limbs, then correct it with
    // the third; afterwards qhat is exact or one too large.
    const u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = num / v_top;
    u128 rhat = num % v_top;
    while ((qhat >> 64) != 0 ||
           qhat * v_next > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if ((rhat >> 64) != 0) break;
    }

    // D4: multiply and subtract qhat * v from the current window of u.
    const u64 q = static_cast<u64>(qhat);
    u64 mul_carry = 0;
    u64 borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = static_cast<u128>(q) * v[i] + mul_carry;
      mul_carry = static_cast<u64>(p >> 64);
      u64 lo = static_cast<u64>(p);
      u64 diff = u[i + j] - lo;
      u64 next = u[i + j] < lo;
      next |= diff < borrow;  // diff >= 1 whenever the first subtraction wrapped
      u[i + j] = diff - borrow;
      borrow = next;
    }
    const u128 owed = static_cast<u128>(mul_carry) + borrow;
    const bool negative = u[j + n] < owed;
    u[j + n] -= static_cast<u64>(owed);

    // D5/D6: qhat was one too large (probability about 2/2^64): add v back.
    quotient.limbs_[j] = q;
    if (negative) {
      --quotient.limbs_[j];
      u64 carry = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<u64>(sum);
        carry = static_cast<u64>(sum >> 64);
      }
      u[j + n] += carry;  // wraps back to the true top limb
    }
  }

  // D8: the remainder is the low n limbs of u, shifted back down.
  BigUint remainder;
  remainder.limbs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    remainder.limbs_[i] = s ? (u[i] >> s) | (u[i + 1] << (64 - s)) : u[i];
  }
  remainder.trim();
  quotient.trim();
  return {std::move(quotient), std::move(remainder)};
}

namespace {

// Montgomery (CIOS) arithmetic modulo an odd k-limb modulus n, R = 2^(64k).
// Operands are k-limb arrays below n. The object owns the k+2 limbs of
// product scratch, so an exponentiation allocates once.
class Montgomery {
 public:
  explicit Montgomery(const std::vector<u64>& n)
      : n_(n.data()), k_(n.size()), t_(n.size() + 2) {
    // n0inv = -n^{-1} mod 2^64 by Newton iteration: n is its own inverse
    // mod 8, and each step doubles the correct low bits (3 -> 96).
    u64 inv = n[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - n[0] * inv;
    n0inv_ = ~inv + 1;
  }

  // out = a * b * R^{-1} mod n. `out` may alias `a` or `b`.
  void mul(u64* out, const u64* a, const u64* b) {
    // Locals, not members: the stores into t could otherwise alias them.
    const u64* n = n_;
    const size_t k = k_;
    const u64 n0inv = n0inv_;
    u64* t = t_.data();
    std::fill(t, t + k + 2, 0);
    for (size_t i = 0; i < k; ++i) {
      const u64 bi = b[i];
      u64 carry = 0;
      for (size_t j = 0; j < k; ++j) {
        u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      u128 top = static_cast<u128>(t[k]) + carry;
      t[k] = static_cast<u64>(top);
      t[k + 1] = static_cast<u64>(top >> 64);

      // Add m*n with m chosen so the low limb cancels, then drop that limb.
      const u64 m = t[0] * n0inv;
      u128 cur = static_cast<u128>(m) * n[0] + t[0];
      carry = static_cast<u64>(cur >> 64);
      for (size_t j = 1; j < k; ++j) {
        cur = static_cast<u128>(m) * n[j] + t[j] + carry;
        t[j - 1] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      top = static_cast<u128>(t[k]) + carry;
      t[k - 1] = static_cast<u64>(top);
      t[k] = t[k + 1] + static_cast<u64>(top >> 64);
    }
    // t < 2n, so one conditional subtraction lands it below n.
    if (t[k] == 0 && std::lexicographical_compare(
                         std::reverse_iterator(t + k), std::reverse_iterator(t),
                         std::reverse_iterator(n + k), std::reverse_iterator(n))) {
      std::copy(t, t + k, out);
      return;
    }
    u64 borrow = 0;
    for (size_t i = 0; i < k; ++i) {
      u64 diff = t[i] - n[i];
      u64 next = t[i] < n[i];
      next |= diff < borrow;
      out[i] = diff - borrow;
      borrow = next;
    }
  }

 private:
  const u64* n_;
  size_t k_;
  u64 n0inv_ = 0;
  std::vector<u64> t_;
};

}  // namespace

BigUint BigUint::mod_exp(const BigUint& base, const BigUint& exp,
                         const BigUint& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp modulus is zero");
  if (modulus == BigUint(1)) return BigUint();
  if (exp.is_zero()) return BigUint(1);
  if (!modulus.is_odd()) {
    // Plain square-and-multiply (rare path; RSA moduli are odd).
    BigUint result(1);
    BigUint b = base % modulus;
    for (size_t i = exp.bit_length(); i-- > 0;) {
      result = (result * result) % modulus;
      if (exp.bit(i)) result = (result * b) % modulus;
    }
    return result;
  }

  const size_t k = modulus.limbs_.size();
  Montgomery mont(modulus.limbs_);
  const size_t bits = exp.bit_length();
  const bool windowed = bits > kMinWindowedExpBits;
  const size_t powers = windowed ? size_t{1} << kWindowBits : 2;

  // One allocation for the whole exponentiation: the table of base powers
  // in Montgomery form (pw[i] = base^i * R mod n; row 0 unused), the
  // accumulator and a staging row for values entering or leaving the
  // Montgomery domain.
  std::vector<u64> scratch((powers + 2) * k, 0);
  u64* pw = scratch.data();
  u64* acc = pw + powers * k;
  u64* stage = acc + k;
  auto load = [&](const BigUint& v) {  // v < n, zero-padded to k limbs
    std::fill(stage, stage + k, 0);
    std::copy(v.limbs_.begin(), v.limbs_.end(), stage);
  };

  // R^2 mod n takes one word-level division. Entering the domain is a
  // product with it: mont(x, R^2) = x*R mod n.
  load((BigUint(1) << (2 * kLimbBits * k)) % modulus);
  std::copy(stage, stage + k, acc);  // acc holds R^2 until the ladder starts
  load(base % modulus);
  mont.mul(pw + k, stage, acc);  // pw[1] = base*R mod n

  if (windowed) {
    for (size_t i = 2; i < powers; ++i) mont.mul(pw + i * k, pw + (i - 1) * k, pw + k);
    // Fixed windows, most significant first; 64 is a multiple of the window
    // width, so no window straddles a limb.
    auto digit = [&](size_t w) {
      size_t at = w * kWindowBits;
      return (exp.limbs_[at / kLimbBits] >> (at % kLimbBits)) & (powers - 1);
    };
    size_t windows = (bits + kWindowBits - 1) / kWindowBits;
    std::copy(pw + digit(windows - 1) * k, pw + (digit(windows - 1) + 1) * k, acc);
    for (size_t w = windows - 1; w-- > 0;) {
      for (size_t i = 0; i < kWindowBits; ++i) mont.mul(acc, acc, acc);
      if (u64 d = digit(w)) mont.mul(acc, acc, pw + d * k);
    }
  } else {
    // Binary ladder from the bit below the leading one.
    std::copy(pw + k, pw + 2 * k, acc);
    for (size_t i = bits - 1; i-- > 0;) {
      mont.mul(acc, acc, acc);
      if (exp.bit(i)) mont.mul(acc, acc, pw + k);
    }
  }

  // Leave the domain: mont(acc, 1) = acc * R^{-1}.
  load(BigUint(1));
  mont.mul(acc, acc, stage);
  BigUint out;
  out.limbs_.assign(acc, acc + k);
  out.trim();
  return out;
}

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  // Extended Euclid with signed coefficients tracked as (magnitude, sign).
  struct Signed {
    BigUint mag;
    bool neg = false;
  };
  auto sub = [](const Signed& x, const Signed& y) -> Signed {
    if (x.neg == y.neg) {
      if (x.mag >= y.mag) return {x.mag - y.mag, x.neg};
      return {y.mag - x.mag, !x.neg};
    }
    return {x.mag + y.mag, x.neg};
  };
  auto mul_big = [](const Signed& x, const BigUint& q) -> Signed {
    return {x.mag * q, x.neg};
  };

  BigUint r0 = m, r1 = a % m;
  Signed t0{BigUint(), false}, t1{BigUint(1), false};
  while (!r1.is_zero()) {
    auto [q, r] = divmod(r0, r1);
    Signed t2 = sub(t0, mul_big(t1, q));
    r0 = std::move(r1);
    r1 = std::move(r);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigUint(1)) throw std::domain_error("mod_inverse: not coprime");
  if (t0.neg) return m - (t0.mag % m);
  return t0.mag % m;
}

namespace {

// The low halves of `words` rng() draws, packed least significant first;
// the last word is first shifted right by `top_shift`. Keygen fixtures
// depend on this exact draw pattern.
std::vector<u64> draw_words(size_t words, size_t top_shift, std::mt19937_64& rng) {
  std::vector<u64> limbs((words + 1) / 2, 0);
  for (size_t i = 0; i < words; ++i) {
    u64 w = static_cast<std::uint32_t>(rng());
    if (i + 1 == words) w >>= top_shift;
    limbs[i / 2] |= w << (32 * (i % 2));
  }
  return limbs;
}

}  // namespace

BigUint BigUint::random_bits(size_t bits, std::mt19937_64& rng) {
  if (bits == 0) return BigUint();
  BigUint out;
  out.limbs_ = draw_words((bits + 31) / 32, 0, rng);
  size_t top_bit = (bits - 1) % kLimbBits;
  if (top_bit < kLimbBits - 1) out.limbs_.back() &= (u64{1} << (top_bit + 1)) - 1;
  out.limbs_.back() |= u64{1} << top_bit;  // force exact bit length
  return out;
}

BigUint BigUint::random_below(const BigUint& bound, std::mt19937_64& rng) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  size_t bits = bound.bit_length();
  size_t words = (bits + 31) / 32;
  for (;;) {
    BigUint candidate;
    candidate.limbs_ = draw_words(words, words * 32 - bits, rng);
    candidate.trim();
    if (candidate < bound) return candidate;
  }
}

bool BigUint::is_probable_prime(const BigUint& n, int rounds,
                                std::mt19937_64& rng) {
  if (n < BigUint(2)) return false;
  static const std::uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                               23, 29, 31, 37, 41, 43, 47};
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigUint(p)) return true;
    if ((n % BigUint(p)).is_zero()) return false;
  }
  // n - 1 = d * 2^s with d odd.
  BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    BigUint a = BigUint(2) + random_below(n - BigUint(4), rng);
    BigUint x = mod_exp(a, d, n);
    if (x == BigUint(1) || x == n_minus_1) continue;
    bool witness = true;
    for (size_t i = 1; i < s; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigUint BigUint::random_prime(size_t bits, std::mt19937_64& rng) {
  for (;;) {
    BigUint candidate = random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigUint(1);
    if (is_probable_prime(candidate, 20, rng)) return candidate;
  }
}

std::uint64_t BigUint::to_u64() const {
  return limbs_.empty() ? 0 : limbs_[0];
}

}  // namespace gs::security
