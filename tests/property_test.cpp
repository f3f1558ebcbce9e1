// Property-based tests: randomized inputs driving invariants that must
// hold for every document / number / message, not just fixtures.
//
// Each suite is a TEST_P over seeds; generators derive structure from a
// seeded mt19937, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <random>

#include "common/encoding.hpp"
#include "net/http.hpp"
#include "security/bignum.hpp"
#include "security/sha256.hpp"
#include "soap/envelope.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"
#include "xml/xpath.hpp"
#include "bignum_reference.hpp"

namespace gs {
namespace {

class Seeded : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937 rng{static_cast<unsigned>(GetParam() * 2654435761u + 1)};

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  }

  std::string random_name() {
    static const char* kNames[] = {"a", "item", "Counter", "cv", "Owner",
                                   "Status", "x-y", "deep_node", "T1"};
    return kNames[pick(0, 8)];
  }

  std::string random_text() {
    std::string out;
    int len = pick(0, 12);
    for (int i = 0; i < len; ++i) {
      // Includes the characters that must be escaped plus whitespace.
      static const char kAlphabet[] =
          "abcXYZ012 <>&\"'\t\n._-";
      out += kAlphabet[pick(0, static_cast<int>(sizeof(kAlphabet)) - 2)];
    }
    return out;
  }

  std::string random_ns() {
    static const char* kNs[] = {"", "urn:a", "urn:b", "http://x.example/ns"};
    return kNs[pick(0, 3)];
  }

  std::unique_ptr<xml::Element> random_tree(int depth) {
    auto el = std::make_unique<xml::Element>(
        xml::QName(random_ns(), random_name()));
    int attrs = pick(0, 3);
    for (int i = 0; i < attrs; ++i) {
      el->set_attr(xml::QName(random_ns(), random_name() + std::to_string(i)),
                   random_text());
    }
    int kids = depth > 0 ? pick(0, 3) : 0;
    for (int i = 0; i < kids; ++i) {
      if (pick(0, 3) == 0) {
        el->append_text(random_text());
      } else {
        el->append(random_tree(depth - 1));
      }
    }
    if (kids == 0 && pick(0, 1)) el->set_text(random_text());
    return el;
  }
};

// --- XML round trip -----------------------------------------------------------

class XmlRoundTripProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty, ::testing::Range(0, 25));

TEST_P(XmlRoundTripProperty, ParseOfWriteIsIdentity) {
  auto tree = random_tree(3);
  auto reparsed = xml::parse_element(xml::write(*tree));
  EXPECT_TRUE(xml::Element::deep_equal(*tree, *reparsed))
      << xml::write(*tree);
}

TEST_P(XmlRoundTripProperty, PrettyAndCompactAgreeStructurally) {
  auto tree = random_tree(3);
  // Pretty output inserts whitespace between elements, which is
  // insignificant only for element-only content; compare canonical forms
  // of reparsed compact output instead (whitespace-exact).
  auto compact = xml::parse_element(xml::write(*tree));
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*compact));
}

TEST_P(XmlRoundTripProperty, CloneEqualsOriginal) {
  auto tree = random_tree(3);
  EXPECT_TRUE(xml::Element::deep_equal(*tree, *tree->clone_element()));
}

TEST_P(XmlRoundTripProperty, CanonicalFormIsRoundTripInvariant) {
  auto tree = random_tree(3);
  auto reparsed = xml::parse_element(xml::write(*tree));
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*reparsed));
}

TEST_P(XmlRoundTripProperty, AttributeOrderDoesNotAffectCanonicalForm) {
  auto tree = random_tree(2);
  // Rebuild with attributes in reversed order.
  std::function<std::unique_ptr<xml::Element>(const xml::Element&)> reversed =
      [&](const xml::Element& el) {
        auto out = std::make_unique<xml::Element>(el.name());
        auto attrs = el.attributes();
        for (auto it = attrs.rbegin(); it != attrs.rend(); ++it) {
          out->set_attr(it->name, it->value);
        }
        for (const auto& child : el.children()) {
          if (child->kind() == xml::NodeKind::kElement) {
            out->append(reversed(static_cast<const xml::Element&>(*child)));
          } else {
            out->append(child->clone());
          }
        }
        return out;
      };
  EXPECT_EQ(xml::canonicalize(*tree), xml::canonicalize(*reversed(*tree)));
}

// --- XML mutation ---------------------------------------------------------------
//
// Malformed input is probed directly: every mutant of a well-formed document
// must either be rejected with ParseError (any other exception escapes and
// fails the test) or parse to a tree that survives its own write/parse round
// trip.

class XmlMutationProperty : public Seeded {
 protected:
  std::string mutate(std::string doc) {
    static const char* kInserts[] = {"<", "&", "]]>"};
    if (doc.empty()) return kInserts[pick(0, 2)];
    std::size_t at = static_cast<std::size_t>(pick(0, static_cast<int>(doc.size()) - 1));
    switch (pick(0, 3)) {
      case 0:  // byte flip
        doc[at] = static_cast<char>(doc[at] ^ (1 << pick(0, 7)));
        break;
      case 1:  // deletion
        doc.erase(at, static_cast<std::size_t>(pick(1, 4)));
        break;
      case 2:  // markup insertion
        doc.insert(at, kInserts[pick(0, 2)]);
        break;
      default:  // truncation
        doc.resize(at);
        break;
    }
    return doc;
  }
};
INSTANTIATE_TEST_SUITE_P(Seeds, XmlMutationProperty, ::testing::Range(0, 40));

TEST_P(XmlMutationProperty, RejectsOrRoundTrips) {
  const std::string doc = xml::write(*random_tree(3));
  for (int i = 0; i < 100; ++i) {
    std::string mutant = doc;
    for (int n = pick(1, 3); n > 0; --n) mutant = mutate(std::move(mutant));
    std::unique_ptr<xml::Element> tree;
    try {
      tree = xml::parse_element(mutant);
    } catch (const xml::ParseError&) {
      continue;
    }
    auto back = xml::parse_element(xml::write(*tree));
    EXPECT_TRUE(xml::Element::deep_equal(*tree, *back)) << mutant;
  }
}

// --- envelopes ------------------------------------------------------------------

class EnvelopeProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeProperty, ::testing::Range(0, 10));

TEST_P(EnvelopeProperty, AddressingSurvivesTheWire) {
  soap::Envelope env;
  soap::MessageInfo info;
  info.to = "http://host-" + std::to_string(pick(0, 99)) + "/svc";
  info.action = "urn:act-" + std::to_string(pick(0, 99));
  info.message_id = "urn:uuid:" + std::to_string(pick(0, 1 << 30));
  soap::EndpointReference reply("http://reply-" + std::to_string(pick(0, 9)));
  reply.add_reference_property(xml::QName("urn:impl", "Key"), random_text());
  info.reply_to = reply;
  env.write_addressing(info);
  env.body().append(random_tree(2));

  soap::MessageInfo read =
      soap::Envelope::from_xml(env.to_xml()).read_addressing();
  EXPECT_EQ(read.to, info.to);
  EXPECT_EQ(read.action, info.action);
  EXPECT_EQ(read.message_id, info.message_id);
  EXPECT_EQ(read.reply_to, info.reply_to);
}

TEST_P(EnvelopeProperty, PayloadSurvivesTheWire) {
  soap::Envelope env;
  auto payload = random_tree(3);
  auto expected = payload->clone_element();
  env.body().append(std::move(payload));
  soap::Envelope back = soap::Envelope::from_xml(env.to_xml());
  ASSERT_NE(back.payload(), nullptr);
  EXPECT_TRUE(xml::Element::deep_equal(*expected, *back.payload()));
}

// --- base64 / hex -----------------------------------------------------------------

class CodecProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range(0, 15));

TEST_P(CodecProperty, Base64RoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> bytes(static_cast<size_t>(pick(0, 200)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(pick(0, 255));
  auto decoded = common::base64_decode(common::base64_encode(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes);
}

TEST_P(CodecProperty, HexRoundTripsArbitraryBytes) {
  std::vector<std::uint8_t> bytes(static_cast<size_t>(pick(0, 200)));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(pick(0, 255));
  auto decoded = common::hex_decode(common::hex_encode(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes);
}

// --- bignum ------------------------------------------------------------------------

class BignumProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, BignumProperty, ::testing::Range(0, 12));

TEST_P(BignumProperty, AdditionSubtractionInverse) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 99);
  auto a = security::BigUint::random_bits(static_cast<size_t>(pick(8, 256)), rng64);
  auto b = security::BigUint::random_bits(static_cast<size_t>(pick(8, 256)), rng64);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a + b) - a, b);
}

TEST_P(BignumProperty, MultiplicationDistributes) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 7);
  auto a = security::BigUint::random_bits(96, rng64);
  auto b = security::BigUint::random_bits(80, rng64);
  auto c = security::BigUint::random_bits(64, rng64);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST_P(BignumProperty, ModExpHomomorphism) {
  // (x^a * x^b) mod n == x^(a+b) mod n
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 13);
  auto n = security::BigUint::random_bits(128, rng64);
  if (!n.is_odd()) n = n + security::BigUint(1);
  auto x = security::BigUint::random_below(n, rng64);
  auto a = security::BigUint::random_bits(32, rng64);
  auto b = security::BigUint::random_bits(32, rng64);
  auto lhs = (security::BigUint::mod_exp(x, a, n) *
              security::BigUint::mod_exp(x, b, n)) % n;
  auto rhs = security::BigUint::mod_exp(x, a + b, n);
  EXPECT_EQ(lhs, rhs);
}

TEST_P(BignumProperty, BytesRoundTrip) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 23);
  auto v = security::BigUint::random_bits(static_cast<size_t>(pick(1, 300)), rng64);
  EXPECT_EQ(security::BigUint::from_bytes(v.to_bytes()), v);
  EXPECT_EQ(security::BigUint::from_hex(v.to_hex()), v);
}

TEST_P(BignumProperty, ModInverseIsInverse) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 31);
  auto m = security::BigUint::random_prime(64, rng64);
  auto a = security::BigUint(2) +
           security::BigUint::random_below(m - security::BigUint(3), rng64);
  auto inv = security::BigUint::mod_inverse(a, m);
  EXPECT_EQ((a * inv) % m, security::BigUint(1));
}

// --- bignum against the reference arithmetic ----------------------------------------
// bignum_reference.hpp keeps the earlier bitwise long division and plain
// square-and-multiply as an oracle for the word-level (Knuth D) division
// and the windowed Montgomery exponentiation.

using security::BigUint;

void expect_divmod_matches(const BigUint& a, const BigUint& b) {
  auto [q, r] = BigUint::divmod(a, b);
  auto [ref_q, ref_r] = security::reference::divmod(a, b);
  EXPECT_EQ(q, ref_q) << "a=" << a.to_hex() << " b=" << b.to_hex();
  EXPECT_EQ(r, ref_r) << "a=" << a.to_hex() << " b=" << b.to_hex();
}

void expect_mod_exp_matches(const BigUint& base, const BigUint& exp, const BigUint& m) {
  EXPECT_EQ(BigUint::mod_exp(base, exp, m), security::reference::mod_exp(base, exp, m))
      << "base=" << base.to_hex() << " exp=" << exp.to_hex() << " m=" << m.to_hex();
}

// A number from its 64-bit limbs, least significant first.
BigUint from_limbs(std::initializer_list<std::uint64_t> limbs) {
  BigUint out;
  for (auto it = std::rbegin(limbs); it != std::rend(limbs); ++it) {
    out = (out << 64) + BigUint(*it);
  }
  return out;
}

class BignumDifferential : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, BignumDifferential, ::testing::Range(0, 12));

TEST_P(BignumDifferential, DivModMatchesReferenceOnRandomOperands) {
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 6; ++i) {
    auto b_bits = static_cast<size_t>(pick(1, 2048));
    auto a_bits = static_cast<size_t>(pick(1, 4096));
    expect_divmod_matches(BigUint::random_bits(a_bits, rng64),
                          BigUint::random_bits(b_bits, rng64));
  }
}

TEST_P(BignumDifferential, DivModMatchesReferenceOnExtremeLimbs) {
  // Limbs at the edges of the quotient estimate (zero, one, half, all ones)
  // drive D3's corrections and D6's add-back often; on random limbs D6
  // fires about once per 2^63 quotient limbs.
  static const std::uint64_t kEdges[] = {0, 1, 2, 0x7fffffffffffffff, 0x8000000000000000,
                                         0x8000000000000001, 0xfffffffffffffffe,
                                         0xffffffffffffffff};
  auto edge_number = [&](int limbs) {
    BigUint out;
    for (int i = 0; i < limbs; ++i) out = (out << 64) + BigUint(kEdges[pick(0, 7)]);
    return out;
  };
  for (int i = 0; i < 200; ++i) {
    BigUint b = edge_number(pick(1, 4));
    if (b.is_zero()) continue;
    expect_divmod_matches(edge_number(pick(1, 8)), b);
  }
}

TEST_P(BignumDifferential, ModExpMatchesReference) {
  // Odd and even moduli from one limb to 4096 bits; exponents on both sides
  // of the binary-ladder / 4-bit-window boundary; bases up to twice the
  // modulus so the initial reduction is exercised.
  static const size_t kModulusBits[] = {64, 65, 127, 128, 192, 256, 512, 1024, 2048, 4096};
  std::mt19937_64 rng64(static_cast<std::uint64_t>(GetParam()) + 2000);
  size_t bits = kModulusBits[GetParam() % std::size(kModulusBits)];
  BigUint odd = BigUint::random_bits(bits, rng64);
  if (!odd.is_odd()) odd = odd + BigUint(1);
  BigUint even = odd - BigUint(1);
  for (const BigUint& m : {odd, even}) {
    BigUint base = BigUint::random_below(m + m, rng64);
    expect_mod_exp_matches(base, BigUint(65537), m);
    expect_mod_exp_matches(base, BigUint::random_bits(66, rng64), m);
    if (bits <= 512) expect_mod_exp_matches(base, BigUint::random_bits(bits, rng64), m);
  }
}

TEST(BignumEdgeCases, SingleLimbDivisors) {
  std::mt19937_64 rng64(41);
  for (std::uint64_t d : {1ull, 2ull, 3ull, 10ull, 0xffffffffull, 0x100000000ull,
                          0x8000000000000000ull, 0xffffffffffffffffull}) {
    expect_divmod_matches(BigUint::random_bits(1000, rng64), BigUint(d));
    expect_divmod_matches(BigUint::random_bits(64, rng64), BigUint(d));
    expect_divmod_matches(BigUint(d), BigUint(d));
  }
}

TEST(BignumEdgeCases, DivisorTopLimbAllOnes) {
  std::mt19937_64 rng64(43);
  for (int extra = 1; extra <= 4; ++extra) {
    BigUint b = (BigUint(0xffffffffffffffff) << (64 * static_cast<size_t>(extra))) +
                BigUint::random_bits(64 * static_cast<size_t>(extra) - 1, rng64);
    expect_divmod_matches(BigUint::random_bits(b.bit_length() + 200, rng64), b);
    expect_divmod_matches(b * b - BigUint(1), b);
  }
}

TEST(BignumEdgeCases, EqualSmallerAndExactMultiples) {
  std::mt19937_64 rng64(47);
  BigUint b = BigUint::random_bits(300, rng64);
  auto [q1, r1] = BigUint::divmod(b, b);
  EXPECT_EQ(q1, BigUint(1));
  EXPECT_TRUE(r1.is_zero());
  BigUint smaller = b - BigUint(1);
  auto [q2, r2] = BigUint::divmod(smaller, b);
  EXPECT_TRUE(q2.is_zero());
  EXPECT_EQ(r2, smaller);
  BigUint q = BigUint::random_bits(500, rng64);
  auto [q3, r3] = BigUint::divmod(b * q, b);
  EXPECT_EQ(q3, q);
  EXPECT_TRUE(r3.is_zero());
  expect_divmod_matches(b * q + b - BigUint(1), b);
}

TEST(BignumEdgeCases, KnuthAddBackStep) {
  // Operands whose first quotient estimate survives D3's test yet is one
  // too large, so D4 goes negative and D6 adds the divisor back: a 2-limb
  // and a 3-limb divisor, normalized and not.
  struct Case {
    BigUint a, b, q, r;
  };
  const BigUint a = BigUint(1) << 192;
  const Case cases[] = {
      {a, from_limbs({1, 0, 1}), BigUint(0xffffffffffffffff),
       from_limbs({1, 0xffffffffffffffff})},
      {a, from_limbs({1, 0, 2}), BigUint(0x7fffffffffffffff),
       from_limbs({0x8000000000000001, 0xffffffffffffffff, 1})},
      {a, from_limbs({1, 0, 0x8000000000000000}), BigUint(1),
       from_limbs({0xffffffffffffffff, 0xffffffffffffffff, 0x7fffffffffffffff})},
      {a, from_limbs({0xffffffffffffffff, 0, 0x8000000000000000}), BigUint(1),
       from_limbs({1, 0xffffffffffffffff, 0x7fffffffffffffff})},
  };
  for (const Case& c : cases) {
    auto [q, r] = BigUint::divmod(c.a, c.b);
    EXPECT_EQ(q, c.q) << c.b.to_hex();
    EXPECT_EQ(r, c.r) << c.b.to_hex();
    expect_divmod_matches(c.a, c.b);
    // The same step deep inside a longer division.
    expect_divmod_matches((c.a << 320) + BigUint(12345), c.b);
  }
}

TEST(BignumEdgeCases, OneLimbModuli) {
  std::mt19937_64 rng64(53);
  for (std::uint64_t m : {2ull, 3ull, 5ull, 0x8000000000000000ull, 0xffffffffffffffc5ull,
                          0xffffffffffffffffull, 0xfffffffffffffffeull}) {
    for (const BigUint& e : {BigUint(0), BigUint(1), BigUint(2),
                             BigUint::random_bits(64, rng64),
                             BigUint::random_bits(200, rng64)}) {
      expect_mod_exp_matches(BigUint::random_bits(100, rng64), e, BigUint(m));
      expect_mod_exp_matches(BigUint(m - 1), e, BigUint(m));
      expect_mod_exp_matches(BigUint(m), e, BigUint(m));
    }
  }
}

// --- hashes --------------------------------------------------------------------------

class HashProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, HashProperty, ::testing::Range(0, 8));

TEST_P(HashProperty, ChunkingDoesNotChangeDigest) {
  std::string data;
  int len = pick(0, 500);
  for (int i = 0; i < len; ++i) data += static_cast<char>(pick(0, 255));

  security::Sha256 chunked;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t take = std::min<size_t>(static_cast<size_t>(pick(1, 64)),
                                   data.size() - pos);
    chunked.update(std::string_view(data).substr(pos, take));
    pos += take;
  }
  EXPECT_EQ(chunked.finish(), security::Sha256::digest(data));
}

TEST_P(HashProperty, SingleBitChangesDigest) {
  std::string data(static_cast<size_t>(pick(1, 100)), 'x');
  auto original = security::Sha256::digest(data);
  data[static_cast<size_t>(pick(0, static_cast<int>(data.size()) - 1))] ^= 1;
  EXPECT_NE(security::Sha256::digest(data), original);
}

// --- HTTP framing ----------------------------------------------------------------------

class HttpProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, HttpProperty, ::testing::Range(0, 10));

TEST_P(HttpProperty, RequestFramingRoundTrips) {
  net::HttpRequest req;
  req.method = pick(0, 1) ? "POST" : "GET";
  req.path = "/p" + std::to_string(pick(0, 999));
  req.host = "h" + std::to_string(pick(0, 99));
  int headers = pick(0, 4);
  for (int i = 0; i < headers; ++i) {
    req.headers["X-H" + std::to_string(i)] = "v" + std::to_string(pick(0, 9));
  }
  int len = pick(0, 300);
  for (int i = 0; i < len; ++i) req.body += static_cast<char>(pick(0, 255));

  auto back = net::HttpRequest::parse(req.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, req.method);
  EXPECT_EQ(back->path, req.path);
  EXPECT_EQ(back->host, req.host);
  EXPECT_EQ(back->headers, req.headers);
  EXPECT_EQ(back->body, req.body);
}

// --- XPath algebra ------------------------------------------------------------------------

class XPathProperty : public Seeded {};
INSTANTIATE_TEST_SUITE_P(Seeds, XPathProperty, ::testing::Range(0, 10));

TEST_P(XPathProperty, UnionIsCommutativeOnRandomTrees) {
  auto tree = random_tree(3);
  auto ab = xml::XPathExpr::compile("//item | //a").select_elements(*tree);
  auto ba = xml::XPathExpr::compile("//a | //item").select_elements(*tree);
  // Same node sets (order may differ).
  std::set<const xml::Element*> sa(ab.begin(), ab.end());
  std::set<const xml::Element*> sb(ba.begin(), ba.end());
  EXPECT_EQ(sa, sb);
}

TEST_P(XPathProperty, CountMatchesSelectionSize) {
  auto tree = random_tree(3);
  auto selected = xml::XPathExpr::compile("//item").select_elements(*tree);
  double counted =
      xml::XPathExpr::compile("count(//item)").eval(*tree).to_number();
  EXPECT_EQ(static_cast<size_t>(counted), selected.size());
}

TEST_P(XPathProperty, PredicateTrueIsIdentity) {
  auto tree = random_tree(3);
  auto plain = xml::XPathExpr::compile("//a").select_elements(*tree);
  auto filtered = xml::XPathExpr::compile("//a[true()]").select_elements(*tree);
  EXPECT_EQ(plain, filtered);
  EXPECT_TRUE(
      xml::XPathExpr::compile("//a[false()]").select_elements(*tree).empty());
}

TEST_P(XPathProperty, DescendantSupersetOfChild) {
  auto tree = random_tree(3);
  auto children = xml::XPathExpr::compile("item").select_elements(*tree);
  auto descendants = xml::XPathExpr::compile("//item").select_elements(*tree);
  std::set<const xml::Element*> d(descendants.begin(), descendants.end());
  for (const auto* c : children) {
    EXPECT_TRUE(d.contains(c));
  }
}

}  // namespace
}  // namespace gs
