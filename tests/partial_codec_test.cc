// Tests for the shard wire codec (cube/partial_codec.h) and the hardened
// JSON layer beneath it (net/json.h): randomized round-trip fuzzing with
// BIT-identical floating-point state, encode determinism, CRC/envelope
// corruption rejection, spec round-trips, and the NaN/Inf + control-
// character encode rules.
#include "solap/cube/partial_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "solap/net/json.h"
#include "solap/parser/parser.h"

namespace solap {
namespace {

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Cell-by-cell BIT equality (not epsilon): the wire must transport the
/// exact IEEE-754 state or shard merges drift from the in-process path.
void ExpectBitIdentical(const SCuboid& a, const SCuboid& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.agg(), b.agg());
  ASSERT_EQ(a.dims().size(), b.dims().size());
  for (size_t d = 0; d < a.dims().size(); ++d) {
    EXPECT_EQ(a.dims()[d].name, b.dims()[d].name);
    EXPECT_EQ(a.dims()[d].ref.attr, b.dims()[d].ref.attr);
    EXPECT_EQ(a.dims()[d].ref.level, b.dims()[d].ref.level);
    EXPECT_EQ(a.dims()[d].is_pattern, b.dims()[d].is_pattern);
  }
  for (const auto& [key, va] : a.cells()) {
    const auto it = b.cells().find(key);
    ASSERT_NE(it, b.cells().end());
    EXPECT_EQ(va.count, it->second.count);
    EXPECT_EQ(Bits(va.sum), Bits(it->second.sum));
    EXPECT_EQ(Bits(va.min), Bits(it->second.min));
    EXPECT_EQ(Bits(va.max), Bits(it->second.max));
  }
  ASSERT_EQ(a.labels().size(), b.labels().size());
  for (size_t d = 0; d < a.labels().size(); ++d) {
    EXPECT_EQ(a.labels()[d], b.labels()[d]);
  }
}

/// A randomized cuboid: random shape, adversarial doubles (subnormals,
/// huge magnitudes, negative zero), control characters in labels.
SCuboid RandomCuboid(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> dim_count(1, 4);
  std::uniform_int_distribution<int> cell_count(0, 40);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<Code> code(0, 9);
  std::uniform_int_distribution<int> agg_pick(0, 4);
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);

  const int nd = dim_count(rng);
  std::vector<DimDescriptor> dims;
  for (int d = 0; d < nd; ++d) {
    DimDescriptor desc;
    desc.is_pattern = coin(rng) == 1;
    desc.name = desc.is_pattern ? std::string(1, static_cast<char>('X' + d))
                                : "attr" + std::to_string(d);
    desc.ref = LevelRef{"attr" + std::to_string(d), "base"};
    dims.push_back(desc);
  }
  SCuboid cuboid(dims, static_cast<AggKind>(agg_pick(rng)));

  auto adversarial = [&]() -> double {
    switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
      case 0:
        return std::numeric_limits<double>::denorm_min();
      case 1:
        return -0.0;
      case 2:
        return 1e308;
      case 3:
        return -1.0 / 3.0;
      default:
        return uniform(rng);
    }
  };

  const int nc = cell_count(rng);
  for (int c = 0; c < nc; ++c) {
    CellKey key;
    for (int d = 0; d < nd; ++d) key.push_back(code(rng));
    cuboid.Add(key, adversarial());
    if (coin(rng) == 1) cuboid.Add(key, adversarial());
    for (int d = 0; d < nd; ++d) {
      if (coin(rng) == 1) {
        cuboid.SetLabel(static_cast<size_t>(d), key[d],
                        "label\t\"" + std::to_string(key[d]) + "\"\x01");
      }
    }
  }
  return cuboid;
}

ScanStats RandomStats(std::mt19937_64& rng) {
  std::uniform_int_distribution<uint64_t> v(0, 1u << 20);
  ScanStats s;
  s.sequences_scanned = v(rng);
  s.lists_built = v(rng);
  s.list_intersections = v(rng);
  s.index_bytes_built = v(rng);
  s.repository_hits = v(rng);
  s.shard_partials = v(rng);
  s.shard_rpc_retries = v(rng);
  s.partial_answers = v(rng);
  return s;
}

TEST(PartialCodecTest, FuzzRoundTripIsBitIdentical) {
  std::mt19937_64 rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    SCuboid original = RandomCuboid(rng);
    ScanStats stats = RandomStats(rng);
    const std::string wire = EncodeShardPartial(original, stats);
    auto decoded = DecodeShardPartial(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << wire;
    ExpectBitIdentical(original, *decoded->cuboid);
    EXPECT_EQ(stats.sequences_scanned, decoded->stats.sequences_scanned);
    EXPECT_EQ(stats.lists_built, decoded->stats.lists_built);
    EXPECT_EQ(stats.index_bytes_built, decoded->stats.index_bytes_built);
    EXPECT_EQ(stats.shard_rpc_retries, decoded->stats.shard_rpc_retries);
    EXPECT_EQ(stats.partial_answers, decoded->stats.partial_answers);
  }
}

TEST(PartialCodecTest, EmptyCuboidKeepsInfiniteNeutralElements) {
  // An untouched MIN/MAX cell holds ±infinity — exactly the values a
  // decimal JSON number cannot carry. The hex-bits transport must.
  SCuboid cuboid({DimDescriptor{"X", LevelRef{"a", "base"}, true}},
                 AggKind::kMin);
  CellKey key;
  key.push_back(3);
  CellValue inf_cell;  // count 0, min=+inf, max=-inf
  cuboid.MergeCell(key, inf_cell);
  const std::string wire = EncodeShardPartial(cuboid, ScanStats{});
  auto decoded = DecodeShardPartial(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CellValue got = decoded->cuboid->CellAt(key);
  EXPECT_EQ(Bits(got.min), Bits(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(Bits(got.max), Bits(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(got.count, 0);
}

TEST(PartialCodecTest, EncodeIsInsertionOrderIndependent) {
  auto build = [](bool reversed) {
    SCuboid c({DimDescriptor{"s", LevelRef{"s", "base"}, false}},
              AggKind::kSum);
    std::vector<std::pair<Code, double>> rows = {
        {1, 2.5}, {7, -3.25}, {4, 0.5}};
    if (reversed) std::reverse(rows.begin(), rows.end());
    for (const auto& [code, v] : rows) {
      CellKey k;
      k.push_back(code);
      c.Add(k, v);
      c.SetLabel(0, code, "s" + std::to_string(code));
    }
    return EncodeShardPartial(c, ScanStats{});
  };
  EXPECT_EQ(build(false), build(true))
      << "wire bytes must be a pure function of content";
}

TEST(PartialCodecTest, RejectsEverySingleByteCorruptionOfPayload) {
  SCuboid cuboid({DimDescriptor{"X", LevelRef{"a", "base"}, true}},
                 AggKind::kSum);
  CellKey key;
  key.push_back(1);
  cuboid.Add(key, 1.0);
  const std::string wire = EncodeShardPartial(cuboid, ScanStats{});
  const size_t payload_at = wire.find("\"payload\":");
  ASSERT_NE(payload_at, std::string::npos);

  int rejected = 0, corrupted = 0;
  for (size_t i = payload_at; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] ^= 0x04;  // flip one bit inside the CRC-protected payload
    if (bad == wire) continue;
    ++corrupted;
    if (!DecodeShardPartial(bad).ok()) ++rejected;
  }
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(rejected, corrupted)
      << "every payload corruption must be caught (CRC or structure)";
}

TEST(PartialCodecTest, RejectsVersionMismatchAndTruncation) {
  SCuboid cuboid({DimDescriptor{"X", LevelRef{"a", "base"}, true}},
                 AggKind::kCount);
  const std::string wire = EncodeShardPartial(cuboid, ScanStats{});
  ASSERT_EQ(wire.find("{\"v\":1,"), 0u);

  std::string wrong_version = wire;
  wrong_version[5] = '9';
  EXPECT_FALSE(DecodeShardPartial(wrong_version).ok());

  for (size_t cut : {wire.size() - 1, wire.size() / 2, size_t{3}}) {
    EXPECT_FALSE(DecodeShardPartial(wire.substr(0, cut)).ok())
        << "truncated at " << cut;
  }
  EXPECT_FALSE(DecodeShardPartial(wire + " ").ok()) << "trailing garbage";
  EXPECT_FALSE(DecodeShardPartial("").ok());
}

TEST(PartialCodecTest, SpecRoundTripsThroughWireText) {
  CuboidSpec spec;
  spec.agg = AggKind::kAvg;
  spec.measure = "amount";
  auto where = ParseExpression("type = 'park' AND NOT (fee > 10)");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  spec.seq.where = *where;
  spec.seq.cluster_by = {LevelRef{"card", "base"}, LevelRef{"day", "base"}};
  spec.seq.sequence_by = "ts";
  spec.seq.ascending = false;
  spec.seq.group_by = {LevelRef{"city", "region"}};
  spec.global_slices = {{LevelRef{"city", "region"}, {"north", "south"}}};
  spec.kind = PatternKind::kSubsequence;
  spec.symbols = {"X", "Y", "X"};
  spec.dims = {{"X", LevelRef{"station", "base"}, {"a", "b"}, "line"},
               {"Y", LevelRef{"station", "line"}, {}, ""}};
  spec.restriction = CellRestriction::kAllMatchedGo;
  spec.placeholders = {"x1", "y1", "x2"};
  auto pred = ParseExpression("x1.fee < y1.fee");
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  spec.predicate = *pred;
  spec.iceberg_min_count = 7;

  const std::string text = EncodeCuboidSpec(spec);
  auto decoded = DecodeCuboidSpecText(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << text;
  // Canonical strings capture every semantic field; equal canonicals mean
  // the decoded spec produces the same cuboid (and cache key).
  EXPECT_EQ(spec.CanonicalString(), decoded->CanonicalString());
  // And the codec must be stable: re-encoding reproduces the same text.
  EXPECT_EQ(text, EncodeCuboidSpec(*decoded));
}

TEST(PartialCodecTest, RegexSpecRoundTrips) {
  CuboidSpec spec;
  spec.agg = AggKind::kCount;
  spec.regex = "X ( . )* X";
  spec.dims = {{"X", LevelRef{"station", "base"}, {}, ""}};
  spec.restriction = CellRestriction::kLeftMaxMatchedGo;
  const std::string text = EncodeCuboidSpec(spec);
  auto decoded = DecodeCuboidSpecText(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(spec.CanonicalString(), decoded->CanonicalString());
}

// -- net/json hardening (satellite 2) ---------------------------------------

// Trees equal node for node, literals bit for bit.
void ExpectSameTree(const Expr& a, const Expr& b) {
  ASSERT_EQ(a.op(), b.op());
  ASSERT_EQ(a.literal().type(), b.literal().type());
  if (a.literal().type() == ValueType::kDouble) {
    double x = a.literal().dbl(), y = b.literal().dbl();
    EXPECT_EQ(0, std::memcmp(&x, &y, sizeof x)) << x << " vs " << y;
  } else {
    EXPECT_EQ(a.literal().ToString(), b.literal().ToString());
  }
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    ExpectSameTree(*a.children()[i], *b.children()[i]);
  }
}

TEST(PartialCodecTest, SpecLiteralsRoundTripExactly) {
  CuboidSpec spec;
  auto where = ParseExpression(
      "ts < 1199791500.5 AND fee >= 0.1 AND fee < 2.675 AND "
      "note != 'say \"hi\"' AND city = \"o'hare\"");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  spec.seq.where = *where;
  spec.seq.cluster_by = {LevelRef{"card", "base"}};
  spec.seq.sequence_by = "ts";
  spec.symbols = {"X", "Y"};
  spec.dims = {{"X", LevelRef{"station", "base"}, {}, ""},
               {"Y", LevelRef{"station", "base"}, {}, ""}};
  spec.placeholders = {"x1", "y1"};
  auto pred = ParseExpression("x1.fee < 0.30000000000000004");
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  spec.predicate = *pred;

  auto decoded = DecodeCuboidSpecText(EncodeCuboidSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameTree(*spec.seq.where, *decoded->seq.where);
  ExpectSameTree(*spec.predicate, *decoded->predicate);
  EXPECT_EQ(spec.CanonicalString(), decoded->CanonicalString());

  // A cutoff differing only in its 7th significant digit is another key.
  CuboidSpec other = spec;
  auto other_where = ParseExpression(
      "ts < 1199794500.5 AND fee >= 0.1 AND fee < 2.675 AND "
      "note != 'say \"hi\"' AND city = \"o'hare\"");
  ASSERT_TRUE(other_where.ok());
  other.seq.where = *other_where;
  EXPECT_NE(spec.CanonicalString(), other.CanonicalString());
}

TEST(JsonHardeningTest, FiniteNumberRejectsNaNAndInf) {
  EXPECT_FALSE(net::JsonFiniteNumber(std::nan("")).ok());
  EXPECT_FALSE(
      net::JsonFiniteNumber(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(
      net::JsonFiniteNumber(-std::numeric_limits<double>::infinity()).ok());
  auto ok = net::JsonFiniteNumber(-0.5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "-0.5");
}

TEST(JsonHardeningTest, EscapesAllControlCharacters) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const std::string encoded = net::JsonString(s);
    for (char ch : encoded) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "raw control byte " << c << " leaked into " << encoded;
    }
    auto parsed = net::JsonParse(encoded);
    ASSERT_TRUE(parsed.ok()) << "control byte " << c;
    EXPECT_EQ(parsed->s, s) << "control byte " << c;
  }
}

TEST(JsonHardeningTest, StrictParseRejectsMalformedInput) {
  EXPECT_FALSE(net::JsonParse("{\"a\":1,\"a\":2}").ok()) << "duplicate key";
  EXPECT_FALSE(net::JsonParse("{\"a\":1} x").ok()) << "trailing garbage";
  EXPECT_FALSE(net::JsonParse("01").ok()) << "leading zero";
  EXPECT_FALSE(net::JsonParse("[1,]").ok()) << "trailing comma";
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(net::JsonParse(deep).ok()) << "depth bomb";
}

}  // namespace
}  // namespace solap
