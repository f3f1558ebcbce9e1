// Reference arithmetic for differential tests of security::BigUint.
//
// This is BigUint's earlier arithmetic, kept as an oracle: 32-bit limbs,
// schoolbook multiplication, bitwise long division (one compare and
// subtract per quotient bit) and plain square-and-multiply. It is slow and
// shares no arithmetic with the production code; values cross over only
// through big-endian bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "security/bignum.hpp"

namespace gs::security::reference {

class Num {
 public:
  Num() = default;
  explicit Num(std::uint32_t v) {
    if (v) limbs_.push_back(v);
  }

  static Num from(const BigUint& v) {
    Num out;
    for (std::uint8_t b : v.to_bytes()) out = (out << 8) + Num(b);
    return out;
  }
  BigUint to_big() const {
    std::vector<std::uint8_t> bytes;
    for (size_t i = limbs_.size(); i-- > 0;) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        bytes.push_back(static_cast<std::uint8_t>(limbs_[i] >> shift));
      }
    }
    return BigUint::from_bytes(bytes);
  }

  bool is_zero() const { return limbs_.empty(); }
  size_t bit_length() const {
    if (limbs_.empty()) return 0;
    size_t bits = (limbs_.size() - 1) * 32;
    for (std::uint32_t top = limbs_.back(); top; top >>= 1) ++bits;
    return bits;
  }
  bool bit(size_t i) const {
    return i / 32 < limbs_.size() && ((limbs_[i / 32] >> (i % 32)) & 1);
  }

  friend int compare(const Num& a, const Num& b) {
    if (a.limbs_.size() != b.limbs_.size()) {
      return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
    }
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
    return 0;
  }

  friend Num operator+(const Num& a, const Num& b) {
    Num out;
    size_t n = std::max(a.limbs_.size(), b.limbs_.size());
    out.limbs_.resize(n);
    std::uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      std::uint64_t sum = carry;
      if (i < a.limbs_.size()) sum += a.limbs_[i];
      if (i < b.limbs_.size()) sum += b.limbs_[i];
      out.limbs_[i] = static_cast<std::uint32_t>(sum);
      carry = sum >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
    return out;
  }

  // Requires a >= b.
  friend Num operator-(const Num& a, const Num& b) {
    Num out;
    out.limbs_.resize(a.limbs_.size());
    std::int64_t borrow = 0;
    for (size_t i = 0; i < a.limbs_.size(); ++i) {
      std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow -
                          (i < b.limbs_.size() ? b.limbs_[i] : 0);
      borrow = diff < 0;
      if (diff < 0) diff += (1LL << 32);
      out.limbs_[i] = static_cast<std::uint32_t>(diff);
    }
    out.trim();
    return out;
  }

  friend Num operator*(const Num& a, const Num& b) {
    if (a.is_zero() || b.is_zero()) return Num();
    Num out;
    out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
    for (size_t i = 0; i < a.limbs_.size(); ++i) {
      std::uint64_t carry = 0;
      for (size_t j = 0; j < b.limbs_.size(); ++j) {
        std::uint64_t cur = out.limbs_[i + j] +
                            static_cast<std::uint64_t>(a.limbs_[i]) * b.limbs_[j] + carry;
        out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
        carry = cur >> 32;
      }
      out.limbs_[i + b.limbs_.size()] = static_cast<std::uint32_t>(carry);
    }
    out.trim();
    return out;
  }

  Num operator<<(size_t bits) const {
    if (is_zero()) return Num();
    size_t limb_shift = bits / 32, bit_shift = bits % 32;
    Num out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < limbs_.size(); ++i) {
      std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
      out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
      out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
    }
    out.trim();
    return out;
  }

  Num operator>>(size_t bits) const {
    size_t limb_shift = bits / 32, bit_shift = bits % 32;
    if (limb_shift >= limbs_.size()) return Num();
    Num out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (size_t i = 0; i < out.limbs_.size(); ++i) {
      std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
      if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
        v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
      }
      out.limbs_[i] = static_cast<std::uint32_t>(v);
    }
    out.trim();
    return out;
  }

  // Bitwise long division: {quotient, remainder}.
  friend std::pair<Num, Num> divmod(const Num& a, const Num& b) {
    if (b.is_zero()) throw std::domain_error("reference division by zero");
    if (compare(a, b) < 0) return {Num(), a};
    size_t shift = a.bit_length() - b.bit_length();
    Num divisor = b << shift;
    Num remainder = a;
    Num quotient;
    quotient.limbs_.assign((shift + 32) / 32, 0);
    for (size_t i = shift + 1; i-- > 0;) {
      if (compare(remainder, divisor) >= 0) {
        remainder = remainder - divisor;
        quotient.limbs_[i / 32] |= (1u << (i % 32));
      }
      divisor = divisor >> 1;
    }
    quotient.trim();
    return {std::move(quotient), std::move(remainder)};
  }

  // Left-to-right square-and-multiply, reducing with the bitwise division.
  friend Num mod_exp(const Num& base, const Num& exp, const Num& modulus) {
    Num result = divmod(Num(1), modulus).second;
    Num b = divmod(base, modulus).second;
    for (size_t i = exp.bit_length(); i-- > 0;) {
      result = divmod(result * result, modulus).second;
      if (exp.bit(i)) result = divmod(result * b, modulus).second;
    }
    return result;
  }

 private:
  void trim() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  }
  std::vector<std::uint32_t> limbs_;
};

inline std::pair<BigUint, BigUint> divmod(const BigUint& a, const BigUint& b) {
  auto [q, r] = divmod(Num::from(a), Num::from(b));
  return {q.to_big(), r.to_big()};
}

inline BigUint mod_exp(const BigUint& base, const BigUint& exp, const BigUint& modulus) {
  return mod_exp(Num::from(base), Num::from(exp), Num::from(modulus)).to_big();
}

}  // namespace gs::security::reference
