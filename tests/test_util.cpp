// Unit tests for util: hashing, Bloom filters, RNG/distributions, CRC, serde,
// command-line number parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/bloom.hpp"
#include "util/crc32c.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/serde.hpp"

namespace bu = backlog::util;

TEST(Hash, Deterministic) {
  const char data[] = "write-anywhere file system";
  EXPECT_EQ(bu::hash_bytes(data, sizeof data - 1),
            bu::hash_bytes(data, sizeof data - 1));
  EXPECT_NE(bu::hash_bytes(data, sizeof data - 1),
            bu::hash_bytes(data, sizeof data - 2));
  EXPECT_NE(bu::hash_bytes(data, sizeof data - 1, 1),
            bu::hash_bytes(data, sizeof data - 1, 2));
}

TEST(Hash, CoversAllLengthTails) {
  // Exercise the 32-byte block loop plus the 8/4/1-byte tails.
  std::vector<std::uint8_t> buf(100);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i);
  std::set<std::uint64_t> hashes;
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    hashes.insert(bu::hash_bytes(buf.data(), len));
  }
  // All prefixes should hash differently (overwhelmingly likely).
  EXPECT_EQ(hashes.size(), buf.size() + 1);
}

TEST(Hash, U64AvalanchesSingleBitFlips) {
  const std::uint64_t base = bu::hash_u64(0xdeadbeefULL);
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NE(base, bu::hash_u64(0xdeadbeefULL ^ (1ULL << bit)));
  }
}

TEST(Bloom, EmptyFilterRejectsEverything) {
  bu::BloomFilter f;
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.may_contain(42));
}

TEST(Bloom, NoFalseNegatives) {
  bu::BloomFilter f(8 * 1024 * 8);
  for (std::uint64_t k = 0; k < 5000; ++k) f.insert(k * 977);
  for (std::uint64_t k = 0; k < 5000; ++k) EXPECT_TRUE(f.may_contain(k * 977));
}

TEST(Bloom, FalsePositiveRateNearExpected) {
  // Paper sizing: 8 bits/key with 4 hashes -> ~2.4% FPR.
  const std::size_t n = 32000;
  bu::BloomFilter f = bu::BloomFilter::sized_for(n);
  EXPECT_EQ(f.byte_size(), 32u * 1024u);  // the WAFL default from §5.1
  for (std::uint64_t k = 0; k < n; ++k) f.insert(k);
  std::size_t fp = 0;
  const std::size_t probes = 100000;
  for (std::uint64_t k = 0; k < probes; ++k) {
    if (f.may_contain(1'000'000'000ULL + k)) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.05);  // well under 2x the theoretical 2.4%
  EXPECT_GT(rate, 0.001); // and it is a real Bloom filter, not a set
  EXPECT_NEAR(f.expected_fpr(n), 0.024, 0.01);
}

TEST(Bloom, HalvingPreservesMembership) {
  bu::BloomFilter f(64 * 1024);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 2000; ++k) keys.push_back(k * 7919);
  for (auto k : keys) f.insert(k);
  const std::size_t before = f.bit_count();
  f.halve();
  EXPECT_EQ(f.bit_count(), before / 2);
  for (auto k : keys) EXPECT_TRUE(f.may_contain(k));
}

TEST(Bloom, ShrinkToFitStopsAtRightSize) {
  bu::BloomFilter f = bu::BloomFilter::sized_for(32000);
  for (std::uint64_t k = 0; k < 100; ++k) f.insert(k);
  f.shrink_to_fit(100);
  // 100 keys * 8 bits = 800 -> rounded up to 1024 bits.
  EXPECT_EQ(f.bit_count(), 1024u);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(f.may_contain(k));
}

TEST(Bloom, SerializeRoundTrip) {
  bu::BloomFilter f(4096);
  for (std::uint64_t k = 0; k < 100; ++k) f.insert(k * 31);
  std::vector<std::uint8_t> bytes;
  f.serialize(bytes);
  std::size_t consumed = 0;
  bu::BloomFilter g = bu::BloomFilter::deserialize(bytes, &consumed);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(g.bit_count(), f.bit_count());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(g.may_contain(k * 31));
}

TEST(Bloom, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_THROW(bu::BloomFilter::deserialize(tiny), std::runtime_error);
  std::vector<std::uint8_t> bad(16, 0);
  bad[0] = 3;  // word count 3: not a power of two
  EXPECT_THROW(bu::BloomFilter::deserialize(bad), std::runtime_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  bu::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInBounds) {
  bu::Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const std::uint64_t v = r.between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformCoversRange) {
  bu::Rng r(3);
  double mn = 1, mx = 0, sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsBias) {
  bu::Rng r(11);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.1) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
}

TEST(Zipf, RanksAreInRangeAndSkewed) {
  bu::Rng r(5);
  bu::ZipfSampler z(1000, 1.15);
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = z.sample(r);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 1000u);
    ++counts[k];
  }
  // Rank 1 must dominate rank 10 which must dominate rank 100.
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // Rank 1 frequency for alpha=1.15 over 1000 ranks is ~18%; loose bounds.
  EXPECT_GT(counts[1], n / 10);
  EXPECT_LT(counts[1], n / 2);
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(bu::ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(bu::ZipfSampler(10, 0.0), std::invalid_argument);
}

TEST(Zipf, SingleElementAlwaysRankOne) {
  bu::Rng r(9);
  bu::ZipfSampler z(1, 1.2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 1u);
}

TEST(DiscreteSample, FollowsWeights) {
  bu::Rng r(13);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[bu::sample_discrete(r, {1.0, 2.0, 1.0})];
  }
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
}

TEST(DiscreteSample, ZeroMassThrows) {
  bu::Rng r(1);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(bu::sample_discrete(r, w), std::invalid_argument);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(bu::crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  std::vector<std::uint8_t> ones(32, 0xff);
  EXPECT_EQ(bu::crc32c(ones.data(), ones.size()), 0x62a8ab43u);
  const char* s = "123456789";
  EXPECT_EQ(bu::crc32c(s, 9), 0xe3069283u);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const char* s = "backlog-backrefs";
  const auto whole = bu::crc32c(s, 16);
  const auto part = bu::crc32c(s + 8, 8, bu::crc32c(s, 8));
  EXPECT_EQ(whole, part);
}

TEST(Serde, BigEndianOrderMatchesNumericOrder) {
  bu::Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = r.next(), b = r.next();
    std::uint8_t ea[8], eb[8];
    bu::put_be64(ea, a);
    bu::put_be64(eb, b);
    EXPECT_EQ(a < b, std::memcmp(ea, eb, 8) < 0);
    EXPECT_EQ(a, bu::get_be64(ea));
  }
}

TEST(Serde, LittleEndianRoundTrip) {
  std::uint8_t buf[8];
  bu::put_u64(buf, 0x1122334455667788ULL);
  EXPECT_EQ(bu::get_u64(buf), 0x1122334455667788ULL);
  bu::put_u32(buf, 0xa1b2c3d4u);
  EXPECT_EQ(bu::get_u32(buf), 0xa1b2c3d4u);
  bu::put_u16(buf, 0xbeefu);
  EXPECT_EQ(bu::get_u16(buf), 0xbeefu);
}

// --- bounds-checked Reader/Writer (the only decode path for untrusted bytes) --

TEST(Serde, WriterReaderRoundTrip) {
  bu::Writer w;
  w.u8(7);
  w.u16(0xbeef);
  w.u32(0xa1b2c3d4u);
  w.u64(0x1122334455667788ULL);
  w.f64(2.5);
  w.string("hello");
  const std::vector<std::uint8_t> raw = {9, 8, 7};
  w.bytes(raw);

  bu::Reader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xa1b2c3d4u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.string(16), "hello");
  const auto b = r.bytes(3);
  EXPECT_EQ(std::vector<std::uint8_t>(b.begin(), b.end()), raw);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, ReaderThrowsOnOverrun) {
  bu::Writer w;
  w.u32(1);
  bu::Reader r(w.data());
  r.u16();
  EXPECT_THROW(r.u32(), bu::SerdeError);  // only 2 bytes left
  bu::Reader r2(w.data());
  EXPECT_THROW(r2.bytes(5), bu::SerdeError);
  bu::Reader r3(w.data());
  EXPECT_THROW(r3.skip(5), bu::SerdeError);
}

TEST(Serde, ReaderStringAndCountCapsBeforeAllocation) {
  // A hostile length prefix must be rejected by the declared cap, never
  // reach an allocation or a read past the buffer.
  bu::Writer w;
  w.string("abcdef");
  bu::Reader r(w.data());
  EXPECT_THROW(r.string(3), bu::SerdeError);  // 6 > cap 3

  bu::Writer w2;
  w2.u32(0xffffffffu);  // count prefix claiming 4 billion elements
  bu::Reader r2(w2.data());
  EXPECT_THROW(r2.count(1024), bu::SerdeError);

  // A length prefix larger than the remaining bytes is equally fatal even
  // when under the cap.
  bu::Writer w3;
  w3.u32(100);  // string length 100, but no bytes follow
  bu::Reader r3(w3.data());
  EXPECT_THROW(r3.string(1 << 20), bu::SerdeError);
}

TEST(ParseU64, AcceptsWholeDecimalAndHexNumbersInRange) {
  std::uint64_t v = 7;
  EXPECT_TRUE(bu::parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(bu::parse_u64("0x10", v));
  EXPECT_EQ(v, 16u);
  EXPECT_TRUE(bu::parse_u64("18446744073709551615", v));  // UINT64_MAX
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(bu::parse_u64("1024", v, 1, 1024));
  EXPECT_EQ(v, 1024u);
}

TEST(ParseU64, RejectsMalformedAndOutOfRangeWithoutWriting) {
  std::uint64_t v = 7;
  EXPECT_FALSE(bu::parse_u64(nullptr, v));
  EXPECT_FALSE(bu::parse_u64("", v));
  EXPECT_FALSE(bu::parse_u64("-1", v));
  EXPECT_FALSE(bu::parse_u64("12abc", v));  // trailing junk
  EXPECT_FALSE(bu::parse_u64("12 ", v));
  EXPECT_FALSE(bu::parse_u64("abc", v));
  EXPECT_FALSE(bu::parse_u64("0x", v));
  EXPECT_FALSE(bu::parse_u64("18446744073709551616", v));  // UINT64_MAX + 1
  EXPECT_FALSE(bu::parse_u64("0", v, 1));                  // below min
  EXPECT_FALSE(bu::parse_u64("1025", v, 1, 1024));         // above max
  EXPECT_EQ(v, 7u);
}
